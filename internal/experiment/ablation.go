package experiment

import (
	"fmt"
	"math"

	"datamarket/internal/linalg"
	"datamarket/internal/pricing"
)

// Lemma8Result compares the paper's mechanism against the ablation that is
// allowed to cut on conservative feedback, under the adversarial stream of
// Lemma 8 / Fig. 6.
type Lemma8Result struct {
	T                    int
	DefaultPhase2Regret  float64
	AblationPhase2Regret float64
	DefaultExploratory   int
	AblationExploratory  int
	// WidthAtSwitch is the ellipsoid width along the second coordinate
	// when the adversary switches direction — the quantity that explodes
	// exponentially under the ablation.
	DefaultWidthAtSwitch  float64
	AblationWidthAtSwitch float64
}

// RunLemma8 executes the two-phase adversary: first half pins x = e₁ with
// reserve equal to the middle price; second half pins x = e₂ with no
// reserve. Returns the phase-2 damage for both variants.
func RunLemma8(T int) (*Lemma8Result, error) {
	if T < 20 || T%2 != 0 {
		return nil, fmt.Errorf("experiment: Lemma 8 needs an even T ≥ 20, got %d", T)
	}
	theta := linalg.VectorOf(0.3, 0.4)
	const eps = 0.01
	res := &Lemma8Result{T: T}

	run := func(ablation bool) (phase2Regret float64, phase2Expl int, widthAtSwitch float64, err error) {
		opts := []pricing.Option{pricing.WithReserve(), pricing.WithThreshold(eps)}
		if ablation {
			opts = append(opts, pricing.WithConservativeCuts())
		}
		m, err := pricing.New(2, 1, opts...)
		if err != nil {
			return 0, 0, 0, err
		}
		e1 := linalg.VectorOf(1, 0)
		e2 := linalg.VectorOf(0, 1)
		half := T / 2
		for i := 0; i < half; i++ {
			lo, hi := m.ValueBounds(e1)
			if _, _, err := pricing.PriceRound(m, nil, e1, (lo+hi)/2, e1.Dot(theta)); err != nil {
				return 0, 0, 0, err
			}
		}
		lo2, hi2 := m.ValueBounds(e2)
		widthAtSwitch = hi2 - lo2
		before := m.Counters().Exploratory
		tracker := pricing.NewTracker()
		for i := 0; i < T-half; i++ {
			if _, _, err := pricing.PriceRound(m, tracker, e2, math.Inf(-1), e2.Dot(theta)); err != nil {
				return 0, 0, 0, err
			}
		}
		return tracker.CumulativeRegret(), m.Counters().Exploratory - before, widthAtSwitch, nil
	}

	var err error
	if res.AblationPhase2Regret, res.AblationExploratory, res.AblationWidthAtSwitch, err = run(true); err != nil {
		return nil, err
	}
	if res.DefaultPhase2Regret, res.DefaultExploratory, res.DefaultWidthAtSwitch, err = run(false); err != nil {
		return nil, err
	}
	return res, nil
}

// Theorem3Point is one (T, regret) sample of the 1-D scaling experiment.
type Theorem3Point struct {
	T         int
	CumRegret float64
	// LogT is log₂(T), the predicted growth scale.
	LogT float64
}

// RunTheorem3 sweeps horizons and measures cumulative regret of the 1-D
// interval mechanism with ε = log₂(T)/T, verifying the O(log T) claim.
func RunTheorem3(horizons []int, seed uint64) ([]Theorem3Point, error) {
	if len(horizons) == 0 {
		return nil, fmt.Errorf("experiment: no horizons")
	}
	out := make([]Theorem3Point, 0, len(horizons))
	for _, T := range horizons {
		if T < 2 {
			return nil, fmt.Errorf("experiment: horizon %d too small", T)
		}
		m, err := pricing.NewInterval(0, 2,
			pricing.WithThreshold(pricing.DefaultThreshold(1, T, 0)))
		if err != nil {
			return nil, err
		}
		// Fixed scalar weight √2 as in the paper's 1-D discussion; the
		// scalar feature is the (constant) normalized total compensation.
		theta := math.Sqrt2
		tracker := pricing.NewTracker()
		for t := 0; t < T; t++ {
			x := 1.0
			v := x * theta
			q, err := m.PostPrice(x, math.Inf(-1))
			if err != nil {
				return nil, err
			}
			if err := m.Observe(pricing.Sold(q.Price, v)); err != nil {
				return nil, err
			}
			tracker.Record(v, math.Inf(-1), q)
		}
		out = append(out, Theorem3Point{
			T: T, CumRegret: tracker.CumulativeRegret(), LogT: math.Log2(float64(T)),
		})
	}
	return out, nil
}

// Fig1Point samples the single-round regret function of Fig. 1.
type Fig1Point struct {
	Posted float64
	Regret float64
}

// RunFig1 evaluates R(p) for a grid of posted prices around a fixed
// market value and reserve — the piecewise, asymmetric curve of Fig. 1.
func RunFig1(value, reserve float64, points int) ([]Fig1Point, error) {
	if points < 2 {
		return nil, fmt.Errorf("experiment: need at least 2 grid points")
	}
	if value <= 0 || reserve < 0 {
		return nil, fmt.Errorf("experiment: need positive value and non-negative reserve")
	}
	hi := 1.5 * value
	out := make([]Fig1Point, points)
	for i := range out {
		p := hi * float64(i) / float64(points-1)
		if p < reserve {
			// The posted price is floored at the reserve.
			p = reserve
		}
		out[i] = Fig1Point{Posted: p, Regret: pricing.SingleRoundRegret(value, reserve, p)}
	}
	return out, nil
}
