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
// This is the ablation behind the "tuned ε" rows in EXPERIMENTS.md: the
// Theorem 1 schedule ε = n²/T minimizes the worst-case bound, while the
// empirical optimum at finite T sits higher.
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
// threshold is held at the δ = 0 schedule across the sweep so the cells
// differ only in the buffer (the Theorem 1 coupling ε ≥ 4nδ would
// otherwise change two knobs at once).
func UncertaintySweep(n, T, owners int, deltas []float64, seed uint64) ([]SweepPoint, error) {
	if len(deltas) == 0 {
		return nil, fmt.Errorf("experiment: no deltas to sweep")
	}
	// Build the mechanisms directly (bypassing the experiment runner's
	// ε ≥ 4nδ floor) so the sweep isolates δ. ε is sized for the largest
	// δ so every cell is a valid Algorithm 2 configuration.
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
		m, err := pricing.New(n, 2*math.Sqrt(float64(n)),
			pricing.WithReserve(),
			pricing.WithUncertainty(d),
			pricing.WithThreshold(eps))
		if err != nil {
			return nil, err
		}
		version := VersionReserveUncertainty
		if d == 0 {
			version = VersionReserve
		}
		w, err := newLinearWorkload(LinearAppConfig{
			N: n, T: T, Owners: owners, Version: version, Delta: d, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		tr := pricing.NewTracker()
		for t := 0; t < T; t++ {
			x, reserve, v, err := w.nextRound()
			if err != nil {
				return nil, err
			}
			q, err := m.PostPrice(x, reserve)
			if err != nil {
				return nil, err
			}
			if q.Decision != pricing.DecisionSkip {
				if err := m.Observe(pricing.Sold(q.Price, v)); err != nil {
					return nil, err
				}
			}
			tr.Record(v, reserve, q)
		}
		out = append(out, SweepPoint{
			Param: d, FinalRatio: tr.RegretRatio(), Exploratory: m.Counters().Exploratory,
		})
	}
	return out, nil
}

// SGDComparison runs the Amin et al. SGD baseline (§VI-B) against the
// ellipsoid mechanism on the identical stream and returns
// (sgdRatio, ellipsoidRatio).
func SGDComparison(n, T, owners int, seed uint64) (sgdRatio, ellRatio float64, err error) {
	run := func(p pricing.Poster) (float64, error) {
		w, err := newLinearWorkload(LinearAppConfig{
			N: n, T: T, Owners: owners, Version: VersionPure, Seed: seed,
		})
		if err != nil {
			return 0, err
		}
		tr := pricing.NewTracker()
		for t := 0; t < T; t++ {
			x, reserve, v, err := w.nextRound()
			if err != nil {
				return 0, err
			}
			q, err := p.PostPrice(x, reserve)
			if err != nil {
				return 0, err
			}
			if q.Decision != pricing.DecisionSkip {
				if err := p.Observe(pricing.Sold(q.Price, v)); err != nil {
					return 0, err
				}
			}
			tr.Record(v, reserve, q)
		}
		return tr.RegretRatio(), nil
	}
	sgd, err := pricing.NewSGD(n, 0.5, 1.0, true)
	if err != nil {
		return 0, 0, err
	}
	if sgdRatio, err = run(sgd); err != nil {
		return 0, 0, err
	}
	cfg := LinearAppConfig{N: n, T: T, Owners: owners, Version: VersionReserve, Seed: seed}
	ell, err := newPoster(cfg)
	if err != nil {
		return 0, 0, err
	}
	if ellRatio, err = run(ell); err != nil {
		return 0, 0, err
	}
	return sgdRatio, ellRatio, nil
}
