package experiment

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"datamarket/internal/histo"
	"datamarket/internal/linalg"
	"datamarket/internal/pricing"
	"datamarket/internal/randx"
)

// OverheadResult reports the §V-D efficiency metrics for one application
// configuration: the mean per-round latency of posting a price plus
// updating the knowledge set, and the resident memory attributable to the
// mechanism state.
type OverheadResult struct {
	Name            string
	N               int
	Rounds          int
	LatencyPerRound time.Duration
	// LatencyP50 and LatencyP99 are per-round quantiles; the mean alone
	// hides the ellipsoid-cut rounds, which cost an n×n pass.
	LatencyP50 time.Duration
	LatencyP99 time.Duration
	// MechanismBytes estimates the mechanism's working set (the n×n shape
	// matrix plus vectors); the paper reports whole-process RSS, which for
	// Python is dominated by the interpreter — this is the honest Go
	// equivalent.
	MechanismBytes uint64
	// ProcessBytes is the Go heap in use after the run (runtime.MemStats).
	ProcessBytes uint64
}

// MeasureLinearOverhead times the §V-A configuration (linear model,
// version with reserve) at dimension n for the given number of rounds.
func MeasureLinearOverhead(n, rounds int, seed uint64) (*OverheadResult, error) {
	if n < 1 || rounds < 1 {
		return nil, fmt.Errorf("experiment: bad overhead config n=%d rounds=%d", n, rounds)
	}
	m, err := pricing.NewFamilyPoster(pricing.FamilySpec{Dim: n, Reserve: true, Horizon: rounds})
	if err != nil {
		return nil, err
	}
	r := randx.New(seed)
	theta := r.NormalVector(n, 1)
	for i := range theta {
		theta[i] = math.Abs(theta[i])
	}
	theta.Normalize()
	theta.Scale(math.Sqrt(2 * float64(n)))

	// Pre-generate the workload so only mechanism time is measured.
	xs := make([]linalg.Vector, rounds)
	qs := make([]float64, rounds)
	vs := make([]float64, rounds)
	for i := range xs {
		x := r.OnSphere(n)
		for j := range x {
			x[j] = math.Abs(x[j])
		}
		xs[i] = x
		qs[i] = x.Sum() * 0.8
		vs[i] = x.Dot(theta)
	}
	lats := histo.New()
	start := time.Now()
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if _, _, err := pricing.PriceRound(m, nil, xs[i], qs[i], vs[i]); err != nil {
			return nil, err
		}
		lats.RecordDuration(time.Since(t0))
	}
	elapsed := time.Since(start)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &OverheadResult{
		Name:            fmt.Sprintf("noisy linear query (n=%d)", n),
		N:               n,
		Rounds:          rounds,
		LatencyPerRound: elapsed / time.Duration(rounds),
		LatencyP50:      time.Duration(lats.Quantile(0.5)),
		LatencyP99:      time.Duration(lats.Quantile(0.99)),
		MechanismBytes:  mechanismBytes(n),
		ProcessBytes:    ms.HeapInuse,
	}, nil
}

// mechanismBytes estimates the mechanism working set: the shape matrix
// (n² float64), the center and scratch vectors (≈ 4n float64).
func mechanismBytes(n int) uint64 {
	return uint64(8 * (n*n + 4*n))
}
