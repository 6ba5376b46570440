package experiment

import (
	"fmt"
	"math"

	"datamarket/internal/pricing"
)

// SweepPoint is one cell of a design-choice ablation sweep.
type SweepPoint struct {
	// Param is the swept value (ε or δ depending on the sweep).
	Param float64
	// FinalRatio is the end-of-run regret ratio.
	FinalRatio float64
	// Exploratory is the number of exploratory rounds spent.
	Exploratory int
}

// ThresholdSweep measures how the exploration threshold ε trades
// exploration volume against conservative-round slack, at fixed (n, T).
// It is why Fig. 5(a) runs at a tuned ε = 0.2: the Theorem 1 schedule
// ε = n²/T minimizes the worst-case bound, while the empirical optimum at
// finite T sits higher.
func ThresholdSweep(n, T, owners int, epsilons []float64, seed uint64) ([]SweepPoint, error) {
	if len(epsilons) == 0 {
		return nil, fmt.Errorf("experiment: no epsilons to sweep")
	}
	out := make([]SweepPoint, 0, len(epsilons))
	for _, eps := range epsilons {
		if eps <= 0 {
			return nil, fmt.Errorf("experiment: non-positive epsilon %g", eps)
		}
		s, err := RunLinearApp(LinearAppConfig{
			N: n, T: T, Owners: owners, Version: VersionReserve,
			Threshold: eps, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{
			Param: eps, FinalRatio: s.FinalRatio, Exploratory: s.Counters.Exploratory,
		})
	}
	return out, nil
}

// UncertaintySweep measures the regret cost of the buffer δ at fixed
// (n, T): δ = 0 recovers Algorithm 1; growing δ keeps θ* safe under
// noisier markets at the price of wider conservative shading (§V-A's
// "uncertainty accumulates more regret" observation). The exploration
// threshold is held fixed across the sweep, at the largest δ's schedule
// max(n²/T, 4nδ), so the cells differ only in the buffer (coupling each
// cell's ε to its own δ would change two knobs at once).
func UncertaintySweep(n, T, owners int, deltas []float64, seed uint64) ([]SweepPoint, error) {
	if len(deltas) == 0 {
		return nil, fmt.Errorf("experiment: no deltas to sweep")
	}
	// Build the mechanisms here rather than through newPoster, whose ε
	// follows each cell's own δ. ε is sized for the largest δ so every
	// cell is a valid Algorithm 2 configuration.
	var maxDelta float64
	for _, d := range deltas {
		if d < 0 {
			return nil, fmt.Errorf("experiment: negative delta %g", d)
		}
		if d > maxDelta {
			maxDelta = d
		}
	}
	eps := math.Max(pricing.DefaultThreshold(n, T, 0), 4*float64(n)*maxDelta)
	out := make([]SweepPoint, 0, len(deltas))
	for _, d := range deltas {
		m, err := pricing.NewFamilyPoster(pricing.FamilySpec{
			Dim: n, Reserve: true, Delta: d, Threshold: eps,
		})
		if err != nil {
			return nil, err
		}
		version := VersionReserveUncertainty
		if d == 0 {
			version = VersionReserve
		}
		consumers, rng, err := newConsumers(LinearAppConfig{
			N: n, T: T, Owners: owners, Version: version, Delta: d, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		s, err := runCurve(version.String(), n, T, nil, m, drawFrom(consumers, rng))
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{
			Param: d, FinalRatio: s.FinalRatio, Exploratory: s.Counters.Exploratory,
		})
	}
	return out, nil
}

// SGDComparison runs the Amin et al. SGD baseline (§VI-B) against the
// ellipsoid mechanism on the identical stream and returns
// (sgdRatio, ellipsoidRatio).
func SGDComparison(n, T, owners int, seed uint64) (sgdRatio, ellRatio float64, err error) {
	cfg := LinearAppConfig{N: n, T: T, Owners: owners, Version: VersionReserve, Seed: seed}
	run := func(label string, p pricing.FamilyPoster) (float64, error) {
		consumers, rng, err := newConsumers(cfg)
		if err != nil {
			return 0, err
		}
		s, err := runCurve(label, n, T, nil, p, drawFrom(consumers, rng))
		if err != nil {
			return 0, err
		}
		return s.FinalRatio, nil
	}
	sgd, err := pricing.NewFamilyPoster(pricing.FamilySpec{
		Family: pricing.FamilySGD, Dim: n, Reserve: true,
		Model: pricing.ModelConfig{Eta0: 0.5, Margin: 1},
	})
	if err != nil {
		return 0, 0, err
	}
	if sgdRatio, err = run("SGD", sgd); err != nil {
		return 0, 0, err
	}
	ell, err := newPoster(cfg)
	if err != nil {
		return 0, 0, err
	}
	if ellRatio, err = run(cfg.Version.String(), ell); err != nil {
		return 0, 0, err
	}
	return sgdRatio, ellRatio, nil
}
