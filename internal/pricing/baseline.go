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

// PriceRound runs one valuation round on p: it posts a price for x under
// reserve, accepts iff Sold(price, valuation), delivers the feedback
// unless the round was a skip, and records the round in tracker. A nil
// tracker records nothing, and a round that fails records nothing
// either. SyncPoster.PriceRound runs it under the stream's lock.
func PriceRound(p Poster, tracker *Tracker, x linalg.Vector, reserve, valuation float64) (Quote, bool, error) {
	q, err := p.PostPrice(x, reserve)
	if err != nil {
		return Quote{}, false, err
	}
	accepted := false
	// A skip round posts no price and leaves nothing pending: the
	// mechanism returns before opening a round, so the next PostPrice
	// proceeds normally (see TestSyncPosterSkipRound).
	if q.Decision != DecisionSkip {
		accepted = Sold(q.Price, valuation)
		if err := p.Observe(accepted); err != nil {
			return q, accepted, err
		}
	}
	if tracker != nil {
		tracker.Record(valuation, reserve, q)
	}
	return q, accepted, nil
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
