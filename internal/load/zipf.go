package load

import (
	"math"

	"pivot/internal/sim"
)

// Zipf samples ranks in [0, n) with a Zipfian popularity distribution of
// skew theta in [0, 1): rank r is drawn with probability proportional to
// 1/(r+1)^theta, so rank 0 is the hottest key. theta == 0 degenerates to
// uniform (but callers should keep the plain uniform draw in that case to
// preserve the historical RNG stream). The sampler is the classic Gray et
// al. construction used by YCSB-style generators: all constants are derived
// from (n, theta) at build time, sampling is one uniform draw, and the
// sampler itself is stateless — it never appears in the machine state.
type Zipf struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
}

// NewZipf builds a sampler over n ranks with skew theta. It panics on
// theta outside [0, 1) — the scenario validator bounds user input first.
func NewZipf(n uint64, theta float64) *Zipf {
	if theta < 0 || theta >= 1 {
		panic("load: Zipf theta must be in [0, 1)")
	}
	if n == 0 {
		n = 1
	}
	z := &Zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

// Next draws one rank using a single uniform variate from rng.
func (z *Zipf) Next(rng *sim.RNG) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// N reports the sampler's rank universe size.
func (z *Zipf) N() uint64 { return z.n }

// zeta is the generalised harmonic number H_{n,theta}.
func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}
