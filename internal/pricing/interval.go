package pricing

import (
	"fmt"
	"math"
)

// IntervalMechanism is the specialized one-dimensional mechanism of §II-C:
// the knowledge set for the scalar weight θ* is an interval [lo, hi], the
// exploratory price bisects it, and Theorem 3 gives O(log T) worst-case
// regret with ε = log²(T)/T.
//
// It is operationally identical to a 1-dimensional Mechanism but keeps the
// interval in closed form (no matrix work at all), which makes it the right
// choice for single-feature deployments such as pricing by total privacy
// compensation alone. The general Mechanism with n = 1 agrees with it
// round-for-round (verified by tests).
type IntervalMechanism struct {
	lo, hi float64
	eps    float64
	delta  float64
	useRes bool

	pending  bool
	lastX    float64
	lastP    float64
	lastExpl bool

	counters Counters
}

// NewInterval builds a one-dimensional mechanism with initial knowledge
// θ* ∈ [lo, hi].
func NewInterval(lo, hi float64, opts ...Option) (*IntervalMechanism, error) {
	// !(lo < hi) already rejects NaN, but ±Inf bounds pass it and make
	// the bisecting price (lo+hi)/2 NaN on the first round.
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("pricing: interval bounds must be finite, got [%g, %g]", lo, hi)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("pricing: interval [%g, %g] is empty", lo, hi)
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.delta < 0 {
		return nil, fmt.Errorf("pricing: negative uncertainty buffer %g", cfg.delta)
	}
	if !cfg.epsSet {
		cfg.eps = math.Max(1e-6, 4*cfg.delta)
	}
	if cfg.eps <= 0 {
		return nil, fmt.Errorf("pricing: threshold must be positive, got %g", cfg.eps)
	}
	return &IntervalMechanism{
		lo: lo, hi: hi,
		eps:    cfg.eps,
		delta:  cfg.delta,
		useRes: cfg.useReserve,
	}, nil
}

// Bounds returns the current knowledge interval for θ*.
func (m *IntervalMechanism) Bounds() (lo, hi float64) { return m.lo, m.hi }

// Counters returns a snapshot of the run statistics.
func (m *IntervalMechanism) Counters() Counters { return m.counters }

// PostPrice prices a query with scalar feature x > 0 and the given reserve.
// The market value interval is [x·lo, x·hi] for x > 0 (the compensation
// features of the paper are non-negative by construction; a non-positive
// feature is rejected as malformed).
func (m *IntervalMechanism) PostPrice(x, reserve float64) (Quote, error) {
	if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return Quote{}, fmt.Errorf("pricing: interval mechanism requires positive finite feature, got %g", x)
	}
	if m.pending {
		return Quote{}, ErrPendingRound
	}
	m.counters.Rounds++

	plo, phi := float64(x*m.lo), float64(x*m.hi)
	q := Quote{Lower: plo, Upper: phi}

	if m.useRes && reserve >= phi+m.delta {
		q.Decision = DecisionSkip
		m.counters.Skips++
		return q, nil
	}

	if phi-plo > m.eps {
		price := (plo + phi) / 2
		if m.useRes && reserve > price {
			price = reserve
			q.ReserveBinding = true
		}
		q.Price = price
		q.Decision = DecisionExploratory
		m.counters.Exploratory++
		m.begin(x, price, true)
		return q, nil
	}

	price := plo - m.delta
	if m.useRes && reserve > price {
		price = reserve
		q.ReserveBinding = true
	}
	q.Price = price
	q.Decision = DecisionConservative
	m.counters.Conservative++
	m.begin(x, price, false)
	return q, nil
}

func (m *IntervalMechanism) begin(x, p float64, expl bool) {
	m.pending = true
	m.lastX, m.lastP, m.lastExpl = x, p, expl
}

// Observe folds the buyer's feedback into the interval:
// rejection ⇒ θ* ≤ (p+δ)/x, acceptance ⇒ θ* ≥ (p−δ)/x.
// Conservative feedback does not refine (matching Algorithm 1 line 24).
func (m *IntervalMechanism) Observe(accepted bool) error {
	if !m.pending {
		return ErrNoPendingRound
	}
	m.pending = false
	if accepted {
		m.counters.Accepts++
	} else {
		m.counters.Rejects++
	}
	if !m.lastExpl {
		return nil
	}
	if accepted {
		bound := (m.lastP - m.delta) / m.lastX
		if bound > m.lo {
			m.lo = bound
			m.counters.CutsApplied++
		} else {
			m.counters.CutsShallow++
		}
	} else {
		bound := (m.lastP + m.delta) / m.lastX
		if bound < m.hi {
			m.hi = bound
			m.counters.CutsApplied++
		} else {
			m.counters.CutsShallow++
		}
	}
	// Numerical floor: never let the interval invert from rounding.
	if m.hi < m.lo {
		mid := (m.hi + m.lo) / 2
		m.lo, m.hi = mid, mid
	}
	return nil
}
