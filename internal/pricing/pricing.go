// Package pricing implements the paper's primary contribution: the
// ellipsoid-based contextual dynamic pricing mechanism with reserve price
// constraint (Algorithms 1, 1*, 2, and 2* of Niu et al., ICDE 2020).
//
// The data broker maintains a knowledge set about the unknown weight vector
// θ* of the market value model v_t = x_tᵀθ* (+ δ_t). Each round she
// receives a feature vector x_t and a reserve price q_t, posts a price, and
// observes only accept/reject feedback. The knowledge set is an ellipsoid;
// each informative feedback refines it with a Löwner-John cut.
//
// A round is driven with two calls:
//
//	quote := m.PostPrice(x, reserve)     // broker's offer
//	if quote.Decision != DecisionSkip {
//	        m.Observe(accepted)          // buyer's accept/reject feedback
//	}
//
// The four versions evaluated in the paper are all configurations of the
// one Mechanism type:
//
//	Algorithm 1  — New(n, R, WithReserve())
//	Algorithm 1* — New(n, R)                         (the "pure" version)
//	Algorithm 2  — New(n, R, WithReserve(), WithUncertainty(δ))
//	Algorithm 2* — New(n, R, WithUncertainty(δ))
package pricing

import (
	"errors"
	"fmt"
	"math"

	"datamarket/internal/ellipsoid"
	"datamarket/internal/linalg"
)

// Decision classifies the broker's action in a round.
type Decision int

const (
	// DecisionSkip means the reserve price q exceeds every possible market
	// value (q ≥ p̄ + δ): the query cannot sell, no price is offered, and
	// there is no feedback to observe.
	DecisionSkip Decision = iota
	// DecisionExploratory means the broker posted max(q, (p̲+p̄)/2): the
	// bisection-style price that refines the knowledge set the most.
	DecisionExploratory
	// DecisionConservative means the broker posted max(q, p̲−δ): the price
	// most likely to sell, which leaves the knowledge set unchanged.
	DecisionConservative
)

// String renders the decision for logs and tables.
func (d Decision) String() string {
	switch d {
	case DecisionSkip:
		return "skip"
	case DecisionExploratory:
		return "exploratory"
	case DecisionConservative:
		return "conservative"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Quote is the broker's output for one round.
type Quote struct {
	// Price is the posted price. Meaningless when Decision == DecisionSkip.
	Price float64
	// Decision says which branch of the algorithm produced the price.
	Decision Decision
	// Lower and Upper are the market value bounds p̲, p̄ derived from the
	// current ellipsoid (before this round's feedback).
	Lower, Upper float64
	// ReserveBinding reports whether the reserve price determined the
	// posted price (Price == reserve > the unconstrained candidate).
	ReserveBinding bool
}

// Counters aggregates per-round bookkeeping across a run. The exploratory
// count is the quantity T_e bounded by Lemmas 6 and 7.
type Counters struct {
	Rounds         int `json:"rounds"`          // PostPrice calls
	Skips          int `json:"skips"`           // certain no-deal rounds (reserve too high)
	Exploratory    int `json:"exploratory"`     // exploratory prices posted
	Conservative   int `json:"conservative"`    // conservative prices posted
	Accepts        int `json:"accepts"`         // accepted offers observed
	Rejects        int `json:"rejects"`         // rejected offers observed
	CutsApplied    int `json:"cuts_applied"`    // ellipsoid refinements performed
	CutsShallow    int `json:"cuts_shallow"`    // feedbacks too shallow to refine (α ≤ −1/n)
	CutsInfeasible int `json:"cuts_infeasible"` // inconsistent feedback (α ≥ 1), ellipsoid kept
}

// config carries the mechanism options.
type config struct {
	useReserve       bool
	delta            float64
	eps              float64
	epsSet           bool
	conservativeCuts bool
}

// Option customizes a Mechanism.
type Option func(*config)

// WithReserve enables the reserve price constraint (Algorithms 1 and 2).
// Without it the reserve passed to PostPrice is ignored (the "pure"
// Algorithms 1* and 2*).
func WithReserve() Option { return func(c *config) { c.useReserve = true } }

// WithUncertainty sets the buffer δ ≥ 0 that makes the mechanism robust to
// σ-subGaussian noise in market values (Algorithm 2). δ = 0 recovers
// Algorithm 1.
func WithUncertainty(delta float64) Option {
	return func(c *config) { c.delta = delta }
}

// WithThreshold overrides the exploration threshold ε > 0. If unset, the
// regret-optimal schedule of Theorem 1 is used (see DefaultThreshold).
func WithThreshold(eps float64) Option {
	return func(c *config) { c.eps = eps; c.epsSet = true }
}

// WithConservativeCuts allows the mechanism to refine the ellipsoid from
// conservative-price feedback. The paper *prohibits* this (line 24 of
// Algorithm 1): Lemma 8 constructs an adversary that forces O(T) regret
// when it is allowed. The option exists solely to reproduce that ablation.
func WithConservativeCuts() Option {
	return func(c *config) { c.conservativeCuts = true }
}

// DefaultThreshold returns the ε schedule used in the paper's analysis and
// experiments: max(n²/T, 4nδ) for n ≥ 2 (Theorem 1) and log₂(T)/T for
// n = 1 (Theorem 3 sets "ε = log2(T)/T", which must be the base-2 log for
// the claimed O(log T) total — ε = log²(T)/T would leave an O(log²T)
// conservative term).
func DefaultThreshold(n, horizon int, delta float64) float64 {
	T := float64(horizon)
	if T < 2 {
		T = 2
	}
	if n <= 1 {
		return math.Max(math.Log2(T)/T, 4*delta)
	}
	nn := float64(n)
	return math.Max(nn*nn/T, 4*nn*delta)
}

// Mechanism is the ellipsoid-based posted price mechanism. It is not safe
// for concurrent use; each pricing stream should own one Mechanism.
type Mechanism struct {
	n   int
	ell *ellipsoid.E
	cfg config

	pending  bool          //lint:ignore snapshotfields Snapshot refuses pending rounds, so pending is always false at snapshot time
	lastX    linalg.Vector //lint:ignore snapshotfields per-round scratch; rebuilt by the next PostPrice
	lastP    float64       //lint:ignore snapshotfields per-round scratch; rebuilt by the next PostPrice
	lastExpl bool          //lint:ignore snapshotfields per-round scratch; rebuilt by the next PostPrice

	counters Counters
}

// New creates a mechanism for n-dimensional feature vectors whose initial
// knowledge set is the ball of the given radius: ‖θ*‖ ≤ radius must hold
// for the regret guarantees. Horizon-dependent defaults (ε) assume the
// caller either supplies WithThreshold or calls SetHorizon before pricing.
func New(n int, radius float64, opts ...Option) (*Mechanism, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pricing: dimension must be positive, got %d", n)
	}
	if radius <= 0 {
		return nil, fmt.Errorf("pricing: radius must be positive, got %g", radius)
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.delta < 0 {
		return nil, fmt.Errorf("pricing: negative uncertainty buffer %g", cfg.delta)
	}
	if cfg.epsSet && cfg.eps <= 0 {
		return nil, fmt.Errorf("pricing: threshold must be positive, got %g", cfg.eps)
	}
	if !cfg.epsSet {
		// A horizon-free fallback; callers running experiments use
		// WithThreshold(DefaultThreshold(...)) for the paper's schedule.
		cfg.eps = math.Max(1e-6, 4*float64(n)*cfg.delta)
		cfg.epsSet = true
	}
	ell, err := ellipsoid.NewBall(n, radius)
	if err != nil {
		return nil, err
	}
	return &Mechanism{n: n, ell: ell, cfg: cfg}, nil
}

// Dim returns the feature dimension n.
func (m *Mechanism) Dim() int { return m.n }

// Threshold returns the exploration threshold ε in use.
func (m *Mechanism) Threshold() float64 { return m.cfg.eps }

// Delta returns the uncertainty buffer δ in use.
func (m *Mechanism) Delta() float64 { return m.cfg.delta }

// UsesReserve reports whether the reserve price constraint is enabled.
func (m *Mechanism) UsesReserve() bool { return m.cfg.useReserve }

// Counters returns a snapshot of the run statistics.
func (m *Mechanism) Counters() Counters { return m.counters }

// Pending reports whether a posted price is awaiting Observe.
func (m *Mechanism) Pending() bool { return m.pending }

// Knowledge returns a copy of the current ellipsoid knowledge set, for
// inspection, persistence, and tests.
func (m *Mechanism) Knowledge() *ellipsoid.E { return m.ell.Clone() }

// ValueBounds returns the current market value interval [p̲, p̄] for a
// feature vector without advancing the mechanism.
func (m *Mechanism) ValueBounds(x linalg.Vector) (lo, hi float64) {
	return m.ell.Support(x)
}

// ErrNoPendingRound is returned by Observe when there is no posted price
// awaiting feedback (e.g. after a skip round or a duplicate Observe).
var ErrNoPendingRound = errors.New("pricing: Observe called with no pending round")

// ErrPendingRound is returned by PostPrice if the previous round's feedback
// was never delivered.
var ErrPendingRound = errors.New("pricing: PostPrice called while a round is pending feedback")

// PostPrice runs lines 2–13/22–23 of the algorithm for one round: given the
// query's feature vector x and reserve price (ignored unless WithReserve),
// it returns the broker's quote. Unless the decision is DecisionSkip, the
// caller must report the buyer's response via Observe before the next call.
func (m *Mechanism) PostPrice(x linalg.Vector, reserve float64) (Quote, error) {
	if len(x) != m.n {
		return Quote{}, fmt.Errorf("pricing: feature dimension %d, want %d", len(x), m.n)
	}
	if m.pending {
		return Quote{}, ErrPendingRound
	}
	m.counters.Rounds++

	lo, hi := m.ell.Support(x)
	q := Quote{Lower: lo, Upper: hi}

	// Certain no-deal: the posted price would be at least q ≥ p̄ + δ ≥ v.
	if m.cfg.useReserve && reserve >= hi+m.cfg.delta {
		q.Decision = DecisionSkip
		m.counters.Skips++
		return q, nil
	}

	if hi-lo > m.cfg.eps {
		// Exploratory price: max(q, middle).
		mid := (lo + hi) / 2
		price := mid
		if m.cfg.useReserve && reserve > price {
			price = reserve
			q.ReserveBinding = true
		}
		q.Price = price
		q.Decision = DecisionExploratory
		m.counters.Exploratory++
		m.begin(x, price, true)
		return q, nil
	}

	// Conservative price: max(q, p̲ − δ).
	price := lo - m.cfg.delta
	if m.cfg.useReserve && reserve > price {
		price = reserve
		q.ReserveBinding = true
	}
	q.Price = price
	q.Decision = DecisionConservative
	m.counters.Conservative++
	m.begin(x, price, false)
	return q, nil
}

func (m *Mechanism) begin(x linalg.Vector, price float64, exploratory bool) {
	m.pending = true
	// lastX is a scratch buffer reused across rounds so the hot path does
	// not allocate; x is copied because the caller may mutate it after the
	// round opens.
	if m.lastX == nil {
		m.lastX = linalg.NewVector(m.n)
	}
	copy(m.lastX, x)
	m.lastP = price
	m.lastExpl = exploratory
}

// Observe delivers the buyer's feedback for the round opened by the last
// PostPrice call and refines the knowledge set (lines 14–21 and 24):
//
//   - rejection ⇒ p ≥ v ≥ x·θ* − δ, so keep {θ : xᵀθ ≤ p + δ};
//   - acceptance ⇒ p ≤ v ≤ x·θ* + δ, so keep {θ : xᵀθ ≥ p − δ}.
//
// Conservative-price feedback never cuts (the Lemma 8 safeguard) unless the
// ablation option WithConservativeCuts was supplied.
func (m *Mechanism) Observe(accepted bool) error {
	if !m.pending {
		return ErrNoPendingRound
	}
	m.pending = false
	if accepted {
		m.counters.Accepts++
	} else {
		m.counters.Rejects++
	}
	if !m.lastExpl && !m.cfg.conservativeCuts {
		return nil
	}
	var res ellipsoid.CutResult
	if accepted {
		// Keep {xᵀθ ≥ p − δ} ⇔ cut with {−xᵀθ ≤ −(p − δ)}. lastX is the
		// mechanism's own scratch and dead after this round, so it is
		// negated in place rather than copied.
		res = m.ell.Cut(m.lastX.Scale(-1), -(m.lastP - m.cfg.delta))
	} else {
		// Keep {xᵀθ ≤ p + δ}.
		res = m.ell.Cut(m.lastX, m.lastP+m.cfg.delta)
	}
	switch res {
	case ellipsoid.CutApplied:
		m.counters.CutsApplied++
	case ellipsoid.CutTooShallow, ellipsoid.CutDegenerate:
		m.counters.CutsShallow++
	case ellipsoid.CutInfeasible:
		m.counters.CutsInfeasible++
	}
	return nil
}

// ExploratoryBound returns the Lemma 6/7 upper bound on the number of
// exploratory rounds, T_e ≤ 20 n² log(20 R S² (n+1)/ε), given the initial
// radius R and the feature norm bound S. Tests use it to confirm the
// theory empirically.
func ExploratoryBound(n int, radius, featureBound, eps float64) float64 {
	nn := float64(n)
	arg := 20 * radius * featureBound * featureBound * (nn + 1) / eps
	if arg < math.E {
		arg = math.E
	}
	return 20 * nn * nn * math.Log(arg)
}
