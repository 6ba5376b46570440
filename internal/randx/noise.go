package randx

import (
	"fmt"
	"math"
)

// SubGaussianNoise models the market-value uncertainty δ_t of §III-B: a
// σ-subGaussian random variable. The concrete families the paper cites —
// normal, bounded-uniform, and Rademacher — are all provided.
type SubGaussianNoise struct {
	kind  NoiseKind
	sigma float64
}

// NoiseKind selects the subGaussian family.
type NoiseKind int

const (
	// NoiseNone yields identically zero noise (the certain setting).
	NoiseNone NoiseKind = iota
	// NoiseNormal yields N(0, σ²), which is σ-subGaussian with C = 2.
	NoiseNormal
	// NoiseUniform yields U[−σ√3, σ√3] (variance σ²), bounded hence subGaussian.
	NoiseUniform
	// NoiseRademacher yields ±σ with equal probability.
	NoiseRademacher
)

// NewSubGaussianNoise returns a sampler with parameter sigma ≥ 0.
func NewSubGaussianNoise(kind NoiseKind, sigma float64) (*SubGaussianNoise, error) {
	if sigma < 0 {
		return nil, fmt.Errorf("randx: negative sigma %g", sigma)
	}
	return &SubGaussianNoise{kind: kind, sigma: sigma}, nil
}

// Sample draws one noise value.
func (s *SubGaussianNoise) Sample(r *RNG) float64 {
	if s.sigma == 0 {
		return 0
	}
	switch s.kind {
	case NoiseNone:
		return 0
	case NoiseNormal:
		return r.Normal(0, s.sigma)
	case NoiseUniform:
		h := float64(s.sigma * math.Sqrt(3))
		return r.Uniform(-h, h)
	case NoiseRademacher:
		return s.sigma * r.Rademacher()
	default:
		panic(fmt.Sprintf("randx: unknown noise kind %d", s.kind))
	}
}

// Buffer returns the uncertainty buffer δ = √(2 log C)·σ·log T used by
// Algorithm 2 so that P(|δ_t| > δ) ≤ T^{−log T} (Eq. 5 of the paper), with
// C = 2 as for the normal family.
func Buffer(sigma float64, T int) float64 {
	if sigma == 0 || T < 2 {
		return 0
	}
	return math.Sqrt(2*math.Log(2)) * sigma * math.Log(float64(T))
}

// SigmaForBuffer inverts Buffer: the σ whose buffer at horizon T is delta.
// The paper's experiments fix δ = 0.01 and derive σ this way (§V-A).
func SigmaForBuffer(delta float64, T int) float64 {
	if delta == 0 || T < 2 {
		return 0
	}
	return delta / (math.Sqrt(2*math.Log(2)) * math.Log(float64(T)))
}
