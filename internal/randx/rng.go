// Package randx provides the deterministic random number generation the
// experiments depend on: a seedable, splittable PCG-style generator and
// samplers for every distribution the paper draws from — normal, uniform,
// Laplace, Rademacher and exponential — plus helpers for the subGaussian
// uncertainty model of §III-B.
//
// All experiment code takes an explicit *randx.RNG so that every table and
// figure is reproducible from a seed: bit for bit on one machine, and at
// the precision pricebench prints across machines, since math.Exp (behind
// the tanh contracts and the exp and logistic links) takes an FMA path on
// amd64 CPUs that have one and may round its last bit differently.
package randx

import (
	"math"

	"datamarket/internal/linalg"
)

// RNG is a 64-bit permuted congruential generator (PCG-XSH-RR variant
// folded to 64-bit output via xorshift-multiply). It is deterministic,
// seedable, and cheap to split into independent streams.
type RNG struct {
	state uint64
	inc   uint64

	// cached second normal deviate from the Box-Muller pair
	hasGauss bool
	gauss    float64
}

// New returns a generator seeded with seed on the default stream.
func New(seed uint64) *RNG { return NewStream(seed, 0xda3e39cb94b95bdb) }

// NewStream returns a generator on an explicit stream; distinct stream
// values yield statistically independent sequences for the same seed.
func NewStream(seed, stream uint64) *RNG {
	r := &RNG{inc: (stream << 1) | 1}
	r.state = 0
	r.Uint64()
	r.state += seed
	r.Uint64()
	return r
}

// Split derives an independent child generator; the parent advances.
func (r *RNG) Split() *RNG {
	return NewStream(r.Uint64(), r.Uint64())
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	// Output permutation (xorshift + odd multiply, strengthens low bits).
	x := old ^ (old >> 33)
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Float64 returns a uniform value in [0, 1) with 53-bit resolution.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*float64(r.Float64()))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn with non-positive bound")
	}
	// Lemire-style rejection to avoid modulo bias.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Normal returns a draw from N(mean, std²) via Box-Muller with caching.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + float64(std*r.StdNormal())
}

// StdNormal returns a draw from N(0, 1).
func (r *RNG) StdNormal() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	// Box-Muller; u must avoid 0 for the log.
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	v := r.Float64()
	rad := math.Sqrt(-2 * math.Log(u))
	r.gauss = rad * math.Sin(2*math.Pi*v)
	r.hasGauss = true
	return rad * math.Cos(2*math.Pi*v)
}

// Exponential returns a draw from Exp(rate), mean 1/rate.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("randx: Exponential with non-positive rate")
	}
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Laplace returns a draw from the Laplace distribution with the given
// location and scale b (variance 2b²) — the noise family of the Laplace
// mechanism in differential privacy.
func (r *RNG) Laplace(loc, scale float64) float64 {
	if scale <= 0 {
		panic("randx: Laplace with non-positive scale")
	}
	u := float64(r.Float64()) - 0.5
	if u >= 0 {
		return loc - float64(scale*math.Log(1-2*u))
	}
	return loc + float64(scale*math.Log(1+2*u))
}

// Rademacher returns ±1 with equal probability; Rademacher variables are
// 1-subGaussian and appear in the paper's uncertainty discussion.
func (r *RNG) Rademacher() float64 {
	if r.Bool() {
		return 1
	}
	return -1
}

// NormalVector fills a fresh n-vector with i.i.d. N(0, std²) entries.
func (r *RNG) NormalVector(n int, std float64) linalg.Vector {
	v := make(linalg.Vector, n)
	for i := range v {
		v[i] = r.Normal(0, std)
	}
	return v
}

// UniformVector fills a fresh n-vector with i.i.d. U[lo, hi) entries.
func (r *RNG) UniformVector(n int, lo, hi float64) linalg.Vector {
	v := make(linalg.Vector, n)
	for i := range v {
		v[i] = r.Uniform(lo, hi)
	}
	return v
}

// OnSphere returns a uniform point on the unit sphere in dimension n.
func (r *RNG) OnSphere(n int) linalg.Vector {
	for {
		v := r.NormalVector(n, 1)
		if v.Normalize() > 0 {
			return v
		}
	}
}

// InBall returns a uniform point in the unit ball in dimension n.
func (r *RNG) InBall(n int) linalg.Vector {
	v := r.OnSphere(n)
	radius := math.Pow(r.Float64(), 1/float64(n))
	return v.Scale(radius)
}
