// Package ring provides a power-of-two circular buffer used by the queued
// components on the simulator's hot path (station and memory-controller
// queues). A FIFO pop from a slice costs an O(n) copy per element served;
// under bandwidth saturation those copies dominated the profile, and a head
// index makes them O(1) without changing any serialised format (components
// snapshot through dedicated state structs, never the live buffer).
package ring

// Ring is a circular buffer over a power-of-two backing slice. The zero
// value is unusable; call New.
type Ring[T any] struct {
	buf  []T
	mask int
	head int
	n    int
}

// New returns a ring with capacity for at least capHint elements.
func New[T any](capHint int) Ring[T] {
	c := 8
	for c < capHint {
		c <<= 1
	}
	return Ring[T]{buf: make([]T, c), mask: c - 1}
}

// Len reports the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// At returns a pointer to the i-th element in FIFO order (0 = oldest).
func (r *Ring[T]) At(i int) *T { return &r.buf[(r.head+i)&r.mask] }

// Push appends v at the tail, growing the backing slice if full.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&r.mask] = v
	r.n++
}

// PopHead removes and returns the oldest element.
func (r *Ring[T]) PopHead() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // drop references for GC
	r.head = (r.head + 1) & r.mask
	r.n--
	return v
}

// Reset empties the ring, zeroing the backing slice so no references leak.
func (r *Ring[T]) Reset() {
	var zero T
	for i := 0; i < r.n; i++ {
		*r.At(i) = zero
	}
	r.head, r.n = 0, 0
}

func (r *Ring[T]) grow() {
	n := len(r.buf) * 2
	if n == 0 {
		n = 8 // zero-value ring: usable, just unsized
	}
	nb := make([]T, n)
	for i := 0; i < r.n; i++ {
		nb[i] = *r.At(i)
	}
	r.buf = nb
	r.mask = len(nb) - 1
	r.head = 0
}
