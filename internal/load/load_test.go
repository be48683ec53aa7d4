package load

import (
	"testing"

	"pivot/internal/sim"
)

// drawN pulls n arrivals (or stops early if the model ceases).
func drawN(m Model, n int) []sim.Cycle {
	var out []sim.Cycle
	var prev sim.Cycle
	for i := 0; i < n; i++ {
		next, ok := m.NextArrival(prev)
		if !ok {
			break
		}
		out = append(out, next)
		prev = next
	}
	return out
}

// TestStationaryPinsHistoricalDraws pins the stationary model to the
// pre-refactor load generator's exact draw law: first arrival Exp(mean)
// from cycle 0 with no offset, then gaps of Exp(mean)+1.
func TestStationaryPinsHistoricalDraws(t *testing.T) {
	const mean = 1000.0
	m := New(Spec{Mean: mean}, sim.NewRNG(7))
	got := drawN(m, 50)

	ref := sim.NewRNG(7)
	want := sim.Cycle(ref.Exp(mean))
	for i, g := range got {
		if g != want {
			t.Fatalf("arrival %d = %d, want %d (historical formula)", i, g, want)
		}
		want = want + sim.Cycle(ref.Exp(mean)) + 1
	}
}

// TestNeutralShapedMatchesStationary: a shaped spec whose composite scale is
// identically 1 must consume the stationary model's exact RNG stream — the
// contract the scenfuzz stationary-equivalence oracle enforces end to end.
func TestNeutralShapedMatchesStationary(t *testing.T) {
	neutral := Spec{Mean: 800, Phases: []Phase{{Shape: ShapeFlat, Cycles: 10_000, Scale: 1}}, Repeat: true}
	if neutral.Stationary() {
		t.Fatal("setup: the neutral spec must take the shaped path")
	}
	a := New(Spec{Mean: 800}, sim.NewRNG(11))
	b := New(neutral, sim.NewRNG(11))
	ga, gb := drawN(a, 200), drawN(b, 200)
	if len(ga) != len(gb) {
		t.Fatalf("arrival counts differ: %d vs %d", len(ga), len(gb))
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("arrival %d differs: stationary %d vs neutral shaped %d", i, ga[i], gb[i])
		}
	}
	sa, sb := a.SnapshotState(), b.SnapshotState()
	if sa != sb {
		t.Fatalf("model states diverged: %+v vs %+v", sa, sb)
	}
}

// TestPhaseCurveShapesRate: a half-rate second phase should admit roughly
// half the arrivals of the full-rate first phase.
func TestPhaseCurveShapesRate(t *testing.T) {
	m := New(Spec{
		Mean: 100,
		Phases: []Phase{
			{Shape: ShapeFlat, Cycles: 500_000, Scale: 1},
			{Shape: ShapeFlat, Cycles: 500_000, Scale: 0.5},
		},
	}, sim.NewRNG(3))
	var hi, lo int
	for _, a := range drawN(m, 100_000) {
		if a >= 1_000_000 {
			break
		}
		if a < 500_000 {
			hi++
		} else {
			lo++
		}
	}
	if hi < 4500 || hi > 5500 {
		t.Fatalf("full-rate phase admitted %d, want ~5000", hi)
	}
	ratio := float64(lo) / float64(hi)
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("half-rate/full-rate arrival ratio = %.3f, want ~0.5 (hi=%d lo=%d)", ratio, hi, lo)
	}
}

// TestRampAndSineStayWithinEnvelope: thinning must never emit arrivals at
// more than the declared envelope rate, and the sine curve must modulate.
func TestRampAndSineStayWithinEnvelope(t *testing.T) {
	spec := Spec{
		Mean: 200,
		Phases: []Phase{
			{Shape: ShapeRamp, Cycles: 300_000, Scale: 0.2, To: 1.5},
			{Shape: ShapeSine, Cycles: 600_000, Scale: 1, Amp: 0.8, Period: 200_000},
		},
		Repeat: true,
	}
	m := New(spec, sim.NewRNG(5))
	arr := drawN(m, 50_000)
	if len(arr) < 1000 {
		t.Fatalf("only %d arrivals drawn", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] <= arr[i-1] {
			t.Fatalf("arrivals not strictly increasing at %d: %d then %d", i, arr[i-1], arr[i])
		}
	}
	// Early ramp (scale ~0.2) must be sparser than the ramp's end (~1.5).
	var early, late int
	for _, a := range arr {
		switch {
		case a < 100_000:
			early++
		case a >= 200_000 && a < 300_000:
			late++
		}
	}
	if early >= late {
		t.Fatalf("ramp start admitted %d >= ramp end %d", early, late)
	}
}

// TestOnOffModulates: with a silent off state, arrival gaps must show long
// silences roughly matching the off sojourns.
func TestOnOffModulates(t *testing.T) {
	m := New(Spec{
		Mean:  100,
		OnOff: OnOff{OnMean: 20_000, OffMean: 20_000, OnScale: 1, OffScale: 0},
	}, sim.NewRNG(9))
	arr := drawN(m, 20_000)
	if len(arr) < 500 {
		t.Fatalf("only %d arrivals", len(arr))
	}
	var silences int
	for i := 1; i < len(arr); i++ {
		if arr[i]-arr[i-1] > 5_000 {
			silences++
		}
	}
	if silences < 5 {
		t.Fatalf("found %d long silences, want several off-state sojourns", silences)
	}
	if m.NumPhases() != 2 {
		t.Fatalf("NumPhases = %d, want 2 (on/off)", m.NumPhases())
	}
}

// TestWindowsGateAndCease: arrivals must fall inside declared windows only,
// and the model must report cessation after the last window closes.
func TestWindowsGateAndCease(t *testing.T) {
	m := New(Spec{
		Mean:    500,
		Windows: []Window{{From: 0, Until: 50_000}, {From: 100_000, Until: 150_000}},
	}, sim.NewRNG(13))
	var prev sim.Cycle
	n := 0
	for {
		next, ok := m.NextArrival(prev)
		if !ok {
			break
		}
		in := (next < 50_000) || (next >= 100_000 && next < 150_000)
		if !in {
			t.Fatalf("arrival %d outside every window", next)
		}
		prev = next
		if n++; n > 1_000_000 {
			t.Fatal("model never ceased")
		}
	}
	if n < 50 {
		t.Fatalf("only %d arrivals across two 50k windows at mean 500", n)
	}
	if _, ok := m.NextArrival(prev); ok {
		t.Fatal("ceased model produced another arrival")
	}
}

// TestCeaseOnTerminalZero: a non-repeating program ending in an off phase
// ceases at the program boundary.
func TestCeaseOnTerminalZero(t *testing.T) {
	m := New(Spec{
		Mean: 300,
		Phases: []Phase{
			{Shape: ShapeFlat, Cycles: 30_000, Scale: 1},
			{Shape: ShapeOff, Cycles: 10_000},
		},
	}, sim.NewRNG(17))
	arr := drawN(m, 10_000)
	if len(arr) == 0 || len(arr) >= 10_000 {
		t.Fatalf("expected a finite arrival prefix, got %d", len(arr))
	}
	if last := arr[len(arr)-1]; last >= 30_000 {
		t.Fatalf("arrival %d inside the terminal off phase", last)
	}
}

// TestZipfSkewsPopularity: rank 0 must dominate under strong skew, every
// rank stays in range, and theta has visible effect versus near-uniform.
func TestZipfSkewsPopularity(t *testing.T) {
	const n = 1024
	rng := sim.NewRNG(29)
	z := NewZipf(n, 0.99)
	counts := make([]int, n)
	for i := 0; i < 200_000; i++ {
		r := z.Next(rng)
		if r >= n {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	if counts[0] < counts[1] || counts[0] < 20*counts[n-1]+1 {
		t.Fatalf("rank 0 drew %d, rank 1 %d, rank %d %d — not Zipfian", counts[0], counts[1], n-1, counts[n-1])
	}
	frac := float64(counts[0]) / 200_000
	if frac < 0.05 {
		t.Fatalf("hottest rank holds only %.3f of draws under theta 0.99", frac)
	}
}

// TestRateReportsShape: the pure Rate accessor tracks the declared curve.
func TestRateReportsShape(t *testing.T) {
	spec := Spec{Mean: 1000, Phases: []Phase{
		{Shape: ShapeFlat, Cycles: 10_000, Scale: 2},
		{Shape: ShapeFlat, Cycles: 10_000, Scale: 0.5},
	}, Repeat: true}
	m := New(spec, sim.NewRNG(31))
	if got := m.Rate(5_000); got != 2.0/1000 {
		t.Fatalf("Rate in phase 0 = %v, want 0.002", got)
	}
	if got := m.Rate(15_000); got != 0.5/1000 {
		t.Fatalf("Rate in phase 1 = %v, want 0.0005", got)
	}
	if got := New(Spec{Mean: 1000}, sim.NewRNG(1)).Rate(0); got != 1.0/1000 {
		t.Fatalf("stationary Rate = %v, want 0.001", got)
	}
	if got := New(Spec{}, sim.NewRNG(1)).Rate(0); got != 0 {
		t.Fatalf("closed-loop Rate = %v, want 0", got)
	}
}
