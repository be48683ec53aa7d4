package metrics

import (
	"encoding/csv"
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	samples := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		p    float64
		want uint32
	}{
		{50, 50}, {95, 100}, {100, 100}, {10, 10},
	}
	for _, c := range cases {
		if got := Percentile(samples, c.p); got != c.want {
			t.Errorf("P%.0f = %d, want %d", c.p, got, c.want)
		}
	}
	if Percentile(nil, 95) != 0 {
		t.Error("empty percentile should be 0")
	}
	// Input must not be mutated (sorted copy).
	shuffled := []uint32{5, 1, 3}
	Percentile(shuffled, 95)
	if shuffled[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileProperty(t *testing.T) {
	f := func(samples []uint32, pRaw uint8) bool {
		if len(samples) == 0 {
			return true
		}
		p := 1 + float64(pRaw%100)
		v := Percentile(samples, p)
		// The result must be an element of the sample set.
		for _, s := range samples {
			if s == v {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		return Percentile(samples, 50) <= Percentile(samples, 95) &&
			Percentile(samples, 95) <= Percentile(samples, 100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]uint32{1, 2, 3}); got != 2 {
		t.Fatalf("mean = %v, want 2", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tb.AddRow("x", "y")
	tb.AddRowf("longcell", 1.23456)
	out := tb.String()
	if !strings.Contains(out, "== T ==") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "1.235") {
		t.Fatalf("float not formatted: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
	// Columns aligned: every data line at least as wide as the widest cell.
	if len(lines[3]) < len("longcell") {
		t.Fatal("column width not expanded")
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Headers: []string{"a", "b"}}
	tb.AddRow("plain", `needs "quoting", really`)
	got := tb.CSV()
	want := "a,b\nplain,\"needs \"\"quoting\"\", really\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

// TestTableCSVQuoting covers the RFC-4180 edge cases: embedded commas,
// quotes, newlines, and combinations — each must round-trip through a
// standard CSV reader unchanged.
func TestTableCSVQuoting(t *testing.T) {
	rows := [][]string{
		{"comma,inside", "plain"},
		{`say "hi"`, `both, "kinds"`},
		{"line\nbreak", "trailing\n"},
		{"", `""`},
		{`"`, `,`},
	}
	tb := &Table{Headers: []string{"x", "y"}}
	for _, r := range rows {
		tb.AddRow(r...)
	}
	got := tb.CSV()

	rd := csv.NewReader(strings.NewReader(got))
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("encoding/csv rejected our output: %v\n%s", err, got)
	}
	if len(recs) != len(rows)+1 {
		t.Fatalf("parsed %d records, want %d", len(recs), len(rows)+1)
	}
	for i, r := range rows {
		for j := range r {
			if recs[i+1][j] != r[j] {
				t.Errorf("cell [%d][%d] = %q, want %q", i, j, recs[i+1][j], r[j])
			}
		}
	}
	// Fields without specials stay unquoted.
	if !strings.HasPrefix(got, "x,y\n") {
		t.Fatalf("plain header was quoted: %q", got)
	}
}

func TestQuantiles(t *testing.T) {
	samples := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	qs := Quantiles(samples, 10, 50, 95, 100)
	want := []uint32{10, 50, 100, 100}
	for i := range want {
		if qs[i] != want[i] {
			t.Errorf("Quantiles[%d] = %d, want %d", i, qs[i], want[i])
		}
	}
	// Must agree with the single-percentile path for any p.
	for p := 1.0; p <= 100; p++ {
		if Quantiles(samples, p)[0] != Percentile(samples, p) {
			t.Fatalf("Quantiles(%v) != Percentile(%v)", p, p)
		}
	}
	// Empty input: zeros, one per requested percentile.
	if got := Quantiles(nil, 50, 99); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("Quantiles(nil) = %v", got)
	}
	// Input must not be mutated (sorted copy).
	shuffled := []uint32{5, 1, 3}
	Quantiles(shuffled, 50, 95)
	if shuffled[0] != 5 {
		t.Error("Quantiles mutated its input")
	}
}
