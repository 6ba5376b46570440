package pricing

import "datamarket/internal/linalg"

// Poster is the minimal interface shared by all posted-price strategies:
// the ellipsoid mechanism, the interval mechanism, the nonlinear wrapper,
// and the baseline below. It lets the experiment harness run any strategy
// through one loop.
type Poster interface {
	// PostPrice returns the quote for a query with feature vector x and
	// reserve price reserve.
	PostPrice(x linalg.Vector, reserve float64) (Quote, error)
	// Observe delivers accept/reject feedback for the last quote, unless
	// that quote was a skip.
	Observe(accepted bool) error
}

// Mechanism, NonlinearMechanism and the baseline all satisfy Poster.
var (
	_ Poster = (*Mechanism)(nil)
	_ Poster = (*NonlinearMechanism)(nil)
	_ Poster = (*RiskAverseBaseline)(nil)
)

// RiskAverseBaseline is the paper's comparison strategy (§V-A, §V-B): it
// posts exactly the reserve price in every round. It can never lose money,
// learns nothing, and its regret is the full markup v − q on every sale —
// the "cold start forever" strategy.
type RiskAverseBaseline struct {
	pending bool
}

// NewRiskAverse returns the baseline strategy.
func NewRiskAverse() *RiskAverseBaseline { return &RiskAverseBaseline{} }

// PostPrice posts the reserve price unconditionally.
func (b *RiskAverseBaseline) PostPrice(_ linalg.Vector, reserve float64) (Quote, error) {
	if b.pending {
		return Quote{}, ErrPendingRound
	}
	b.pending = true
	return Quote{
		Price:          reserve,
		Decision:       DecisionConservative,
		Lower:          reserve,
		Upper:          reserve,
		ReserveBinding: true,
	}, nil
}

// Observe discards the feedback — the baseline never learns.
func (b *RiskAverseBaseline) Observe(bool) error {
	if !b.pending {
		return ErrNoPendingRound
	}
	b.pending = false
	return nil
}
