package ring

import "testing"

func TestFIFO(t *testing.T) {
	r := New[int](3)
	for i := 0; i < 100; i++ {
		r.Push(i)
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d, want 100", r.Len())
	}
	for i := 0; i < 100; i++ {
		if got := r.PopHead(); got != i {
			t.Fatalf("PopHead = %d, want %d", got, i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after drain", r.Len())
	}
}

func TestWrapAround(t *testing.T) {
	r := New[int](8)
	for round := 0; round < 50; round++ {
		for i := 0; i < 5; i++ {
			r.Push(round*10 + i)
		}
		for i := 0; i < 5; i++ {
			if got := r.PopHead(); got != round*10+i {
				t.Fatalf("round %d: PopHead = %d, want %d", round, got, round*10+i)
			}
		}
	}
}

func TestReset(t *testing.T) {
	r := New[*int](4)
	v := 7
	r.Push(&v)
	r.Push(&v)
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len = %d after Reset", r.Len())
	}
	r.Push(&v)
	if *r.PopHead() != 7 {
		t.Fatal("ring unusable after Reset")
	}
}
