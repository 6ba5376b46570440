package experiment

import (
	"fmt"
	"math"

	"datamarket/internal/feature"
	"datamarket/internal/linalg"
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
	// schedule's constant is conservative at large n — EXPERIMENTS.md
	// reports both the schedule and a tuned ε for the n = 100 runs.
	Threshold float64
	// Seed drives all randomness (workload and noise).
	Seed uint64
	// Checkpoints are the rounds at which the curves are sampled; empty
	// means a log-spaced default.
	Checkpoints []int
}

// linearWorkload holds the §V-A market simulation state shared by all
// versions: the owner contracts/ranges, the hidden θ*, and the stream RNG.
type linearWorkload struct {
	cfg       LinearAppConfig
	ranges    linalg.Vector
	contracts []privacy.Contract
	theta     linalg.Vector
	noise     *randx.SubGaussianNoise
	rng       *randx.RNG
}

// newLinearWorkload validates the config and prepares the workload.
// Versions sharing (N, T, Owners, Seed) see the identical query stream.
func newLinearWorkload(cfg LinearAppConfig) (*linearWorkload, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("experiment: N must be ≥ 1, got %d", cfg.N)
	}
	if cfg.T < 1 {
		return nil, fmt.Errorf("experiment: T must be ≥ 1, got %d", cfg.T)
	}
	if cfg.Owners < cfg.N {
		return nil, fmt.Errorf("experiment: Owners (%d) must be ≥ N (%d)", cfg.Owners, cfg.N)
	}
	if cfg.Delta < 0 {
		return nil, fmt.Errorf("experiment: negative Delta %g", cfg.Delta)
	}
	if cfg.Threshold < 0 {
		return nil, fmt.Errorf("experiment: negative Threshold %g", cfg.Threshold)
	}
	contract, err := privacy.NewTanhContract(1, 1)
	if err != nil {
		return nil, err
	}
	w := &linearWorkload{cfg: cfg}
	w.ranges = make(linalg.Vector, cfg.Owners)
	w.contracts = make([]privacy.Contract, cfg.Owners)
	for i := 0; i < cfg.Owners; i++ {
		w.ranges[i] = 4.5 // the MovieLens rating-scale span
		w.contracts[i] = contract
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
	w.theta = theta

	if cfg.Version.UsesUncertainty() && cfg.Delta > 0 {
		sigma := randx.SigmaForBuffer(cfg.Delta, cfg.T)
		w.noise, err = randx.NewSubGaussianNoise(randx.NoiseNormal, sigma)
		if err != nil {
			return nil, err
		}
	}
	w.rng = randx.NewStream(cfg.Seed, 0x11)
	return w, nil
}

// nextRound draws one query and runs the §II-B feature pipeline, returning
// the feature vector, the reserve price, and the (possibly noisy) market
// value.
func (w *linearWorkload) nextRound() (x linalg.Vector, reserve, value float64, err error) {
	weights := make(linalg.Vector, w.cfg.Owners)
	if w.cfg.UniformQueryWeights {
		for i := range weights {
			weights[i] = w.rng.Uniform(-1, 1)
		}
	} else {
		for i := range weights {
			weights[i] = w.rng.StdNormal()
		}
	}
	k := w.rng.Intn(9) - 4
	q, err := privacy.NewLinearQuery(weights, math.Pow(10, float64(k)))
	if err != nil {
		return nil, 0, 0, err
	}
	leak, err := q.Leakages(w.ranges)
	if err != nil {
		return nil, 0, 0, err
	}
	comps, err := privacy.Compensations(leak, w.contracts)
	if err != nil {
		return nil, 0, 0, err
	}
	x, _, reserve, err = feature.CompensationFeatures(comps, w.cfg.N)
	if err != nil {
		return nil, 0, 0, err
	}
	value = x.Dot(w.theta)
	if w.noise != nil {
		value += w.noise.Sample(w.rng)
	}
	return x, reserve, value, nil
}

// newPoster builds the mechanism for the configured version.
func newPoster(cfg LinearAppConfig) (pricing.Poster, error) {
	if cfg.Version == VersionRiskAverse {
		return pricing.NewRiskAverse(), nil
	}
	delta := 0.0
	if cfg.Version.UsesUncertainty() {
		delta = cfg.Delta
	}
	eps := cfg.Threshold
	if eps == 0 {
		eps = pricing.DefaultThreshold(cfg.N, cfg.T, delta)
	}
	// Every lemma of §III-C needs ε ≥ 4nδ: below it, buffered cuts have
	// α < −1/n (too shallow to refine) once the width drops under 2nδ,
	// and the mechanism explores forever without progress. Keep tuned
	// thresholds valid by flooring them at the coupling.
	if min := 4 * float64(cfg.N) * delta; eps < min {
		eps = min
	}
	opts := []pricing.Option{pricing.WithThreshold(eps)}
	if delta > 0 {
		opts = append(opts, pricing.WithUncertainty(delta))
	}
	if cfg.Version.UsesReserve() {
		opts = append(opts, pricing.WithReserve())
	}
	// Initial knowledge: ‖θ*‖ ≤ 2√n (§V-A: R = 2√n).
	return pricing.New(cfg.N, 2*math.Sqrt(float64(cfg.N)), opts...)
}

// RunLinearApp runs Application 1 for one version and returns its series.
func RunLinearApp(cfg LinearAppConfig) (*Series, error) {
	w, err := newLinearWorkload(cfg)
	if err != nil {
		return nil, err
	}
	poster, err := newPoster(cfg)
	if err != nil {
		return nil, err
	}
	cps := cfg.Checkpoints
	if len(cps) == 0 {
		cps = Checkpoints(cfg.T, 5)
	}
	s := &Series{
		Label:       cfg.Version.String(),
		N:           cfg.N,
		T:           cfg.T,
		Checkpoints: cps,
	}
	tracker := pricing.NewTracker()
	next := 0
	for t := 1; t <= cfg.T; t++ {
		x, reserve, v, err := w.nextRound()
		if err != nil {
			return nil, err
		}
		quote, err := poster.PostPrice(x, reserve)
		if err != nil {
			return nil, fmt.Errorf("experiment: round %d: %w", t, err)
		}
		if quote.Decision != pricing.DecisionSkip {
			if err := poster.Observe(pricing.Sold(quote.Price, v)); err != nil {
				return nil, fmt.Errorf("experiment: round %d: %w", t, err)
			}
		}
		tracker.Record(v, reserve, quote)
		for next < len(cps) && cps[next] == t {
			s.CumRegret = append(s.CumRegret, tracker.CumulativeRegret())
			s.RegretRatio = append(s.RegretRatio, tracker.RegretRatio())
			next++
		}
	}
	s.FinalRegret = tracker.CumulativeRegret()
	s.FinalRatio = tracker.RegretRatio()
	s.Table = tracker.Table()
	if m, ok := poster.(*pricing.Mechanism); ok {
		s.Counters = m.Counters()
	}
	return s, nil
}

// Fig4Cell runs all four versions of Fig. 4 for one (n, T) cell on the
// identical workload stream and returns the four series in AllVersions
// order. threshold = 0 uses the Theorem 1 schedule.
func Fig4Cell(n, T, owners int, delta, threshold float64, seed uint64) ([]*Series, error) {
	out := make([]*Series, 0, len(AllVersions))
	for _, v := range AllVersions {
		cfg := LinearAppConfig{
			N: n, T: T, Owners: owners, Version: v, Delta: delta,
			Threshold: threshold, Seed: seed,
		}
		s, err := RunLinearApp(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: Fig4 n=%d %s: %w", n, v, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig5aCell runs the four versions plus the risk-averse baseline for the
// Fig. 5(a) regret-ratio comparison. threshold = 0 uses the Theorem 1
// schedule.
func Fig5aCell(n, T, owners int, delta, threshold float64, seed uint64) ([]*Series, error) {
	versions := append(append([]Version{}, AllVersions...), VersionRiskAverse)
	out := make([]*Series, 0, len(versions))
	for _, v := range versions {
		cfg := LinearAppConfig{
			N: n, T: T, Owners: owners, Version: v, Delta: delta,
			Threshold: threshold, Seed: seed,
		}
		s, err := RunLinearApp(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: Fig5a %s: %w", v, err)
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
