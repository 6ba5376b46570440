package experiment

import (
	"fmt"
	"math"

	"datamarket/internal/linalg"
	"datamarket/internal/market"
	"datamarket/internal/pricing"
	"datamarket/internal/privacy"
	"datamarket/internal/randx"
)

// LinearAppConfig parameterizes Application 1 (§V-A): pricing noisy linear
// queries over a MovieLens-style owner population under the linear market
// value model.
type LinearAppConfig struct {
	// N is the feature dimension (1, 20, 40, 60, 80, 100 in Fig. 4).
	N int
	// T is the number of rounds.
	T int
	// Owners is the data owner population size (queries are weighted sums
	// over these owners; their compensations become the features).
	Owners int
	// Version selects the mechanism configuration.
	Version Version
	// Delta is the uncertainty buffer δ (the paper fixes 0.01 for the
	// *Uncertainty versions); ignored for versions without uncertainty.
	Delta float64
	// UniformQueryWeights draws query weights from U[−1,1]; otherwise
	// N(0,1). The paper randomizes between both; we expose the switch.
	UniformQueryWeights bool
	// Threshold overrides the exploration threshold ε; 0 means the
	// Theorem 1 schedule (max(n²/T, 4nδ), or log₂(T)/T for n = 1). The
	// schedule's constant is conservative at large n, so Fig. 5(a) runs
	// n = 100 at a tuned ε (see ThresholdSweep).
	Threshold float64
	// Seed drives all randomness (workload and noise).
	Seed uint64
	// Checkpoints are the rounds at which the curves are sampled; empty
	// means a log-spaced default.
	Checkpoints []int
}

// newConsumers validates the config and builds the §V-A consumer stream
// with the RNG that drives it: cfg.Owners owners over the MovieLens
// rating-scale span 4.5 under a tanh(1, 1) contract, and, for the
// versions with uncertainty, market-value noise sized for the buffer δ.
// Versions sharing (N, T, Owners, Seed) see the identical query stream.
func newConsumers(cfg LinearAppConfig) (*market.ConsumerModel, *randx.RNG, error) {
	if cfg.N < 1 {
		return nil, nil, fmt.Errorf("experiment: N must be ≥ 1, got %d", cfg.N)
	}
	if cfg.T < 1 {
		return nil, nil, fmt.Errorf("experiment: T must be ≥ 1, got %d", cfg.T)
	}
	if cfg.Owners < cfg.N {
		return nil, nil, fmt.Errorf("experiment: Owners (%d) must be ≥ N (%d)", cfg.Owners, cfg.N)
	}
	if cfg.Delta < 0 {
		return nil, nil, fmt.Errorf("experiment: negative Delta %g", cfg.Delta)
	}
	if cfg.Threshold < 0 {
		return nil, nil, fmt.Errorf("experiment: negative Threshold %g", cfg.Threshold)
	}
	contract, err := privacy.NewTanhContract(1, 1)
	if err != nil {
		return nil, nil, err
	}
	owners := make([]market.Owner, cfg.Owners)
	for i := range owners {
		owners[i] = market.Owner{ID: i, Range: 4.5, Contract: contract}
	}
	// θ* drawn positive and scaled to ‖θ*‖ = √(2n) (§V-A) so that market
	// values exceed the compensation-based reserves with high probability.
	setup := randx.NewStream(cfg.Seed, 0x7e7a)
	theta := make(linalg.Vector, cfg.N)
	if cfg.UniformQueryWeights {
		for i := range theta {
			theta[i] = setup.Float64()
		}
	} else {
		for i := range theta {
			theta[i] = math.Abs(setup.StdNormal())
		}
	}
	theta.Normalize()
	theta.Scale(math.Sqrt(2 * float64(cfg.N)))

	var noise *randx.SubGaussianNoise
	if cfg.Version.UsesUncertainty() && cfg.Delta > 0 {
		sigma := randx.SigmaForBuffer(cfg.Delta, cfg.T)
		if noise, err = randx.NewSubGaussianNoise(randx.NoiseNormal, sigma); err != nil {
			return nil, nil, err
		}
	}
	consumers, err := market.NewConsumerModel(market.ConsumerConfig{
		Owners: owners, FeatureDim: cfg.N, Theta: theta, Noise: noise,
		UniformWeights: cfg.UniformQueryWeights,
	})
	if err != nil {
		return nil, nil, err
	}
	return consumers, randx.NewStream(cfg.Seed, 0x11), nil
}

// drawFrom adapts the consumer stream to runCurve's round source.
func drawFrom(consumers *market.ConsumerModel, rng *randx.RNG) func(int) (linalg.Vector, float64, float64, error) {
	return func(int) (linalg.Vector, float64, float64, error) {
		q, x, reserve, err := consumers.NextRound(rng)
		return x, reserve, q.Valuation, err
	}
}

// newPoster builds the mechanism of a version other than the risk-averse
// baseline, through the family factory that brokerd builds its streams
// with. The family's default radius is 2√n, the §V-A bound on ‖θ*‖.
func newPoster(cfg LinearAppConfig) (pricing.FamilyPoster, error) {
	spec := pricing.FamilySpec{
		Dim: cfg.N, Reserve: cfg.Version.UsesReserve(), Threshold: cfg.Threshold, Horizon: cfg.T,
	}
	if cfg.Version.UsesUncertainty() {
		spec.Delta = cfg.Delta
	}
	// Every lemma of §III-C needs ε ≥ 4nδ: below it, buffered cuts have
	// α < −1/n (too shallow to refine) once the width drops under 2nδ,
	// and the mechanism explores forever without progress. Keep tuned
	// thresholds valid by flooring them at the coupling; the Theorem 1
	// schedule (Threshold 0) already respects it.
	if min := 4 * float64(cfg.N) * spec.Delta; spec.Threshold > 0 && spec.Threshold < min {
		spec.Threshold = min
	}
	return pricing.NewFamilyPoster(spec)
}

// RunLinearApp runs Application 1 for one version and returns its series.
func RunLinearApp(cfg LinearAppConfig) (*Series, error) {
	consumers, rng, err := newConsumers(cfg)
	if err != nil {
		return nil, err
	}
	var mech pricing.FamilyPoster // nil runs the risk-averse baseline
	if cfg.Version != VersionRiskAverse {
		if mech, err = newPoster(cfg); err != nil {
			return nil, err
		}
	}
	return runCurve(cfg.Version.String(), cfg.N, cfg.T, cfg.Checkpoints, mech, drawFrom(consumers, rng))
}

// Fig4Cell runs all four versions of Fig. 4 for one (n, T) cell on the
// identical workload stream and returns the four series in AllVersions
// order. threshold = 0 uses the Theorem 1 schedule.
func Fig4Cell(n, T, owners int, delta, threshold float64, seed uint64) ([]*Series, error) {
	return runVersions(AllVersions, n, T, owners, delta, threshold, seed)
}

// Fig5aCell runs the four versions plus the risk-averse baseline for the
// Fig. 5(a) regret-ratio comparison. threshold = 0 uses the Theorem 1
// schedule.
func Fig5aCell(n, T, owners int, delta, threshold float64, seed uint64) ([]*Series, error) {
	versions := append(append([]Version{}, AllVersions...), VersionRiskAverse)
	return runVersions(versions, n, T, owners, delta, threshold, seed)
}

// runVersions runs each version on the identical workload stream.
func runVersions(versions []Version, n, T, owners int, delta, threshold float64, seed uint64) ([]*Series, error) {
	out := make([]*Series, 0, len(versions))
	for _, v := range versions {
		s, err := RunLinearApp(LinearAppConfig{
			N: n, T: T, Owners: owners, Version: v, Delta: delta,
			Threshold: threshold, Seed: seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: n=%d %s: %w", n, v, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// Table1Row runs the version-with-reserve configuration for one (n, T)
// and returns the Table I statistics row.
func Table1Row(n, T, owners int, seed uint64) (pricing.TableRow, error) {
	s, err := RunLinearApp(LinearAppConfig{
		N: n, T: T, Owners: owners, Version: VersionReserve, Seed: seed,
	})
	if err != nil {
		return pricing.TableRow{}, err
	}
	return s.Table, nil
}
