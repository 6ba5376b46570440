package pricing

import (
	"fmt"

	"datamarket/internal/stats"
)

// SingleRoundRegret evaluates the paper's regret function (Eq. 1) for one
// round with known market value v, reserve price q, posted price p, and the
// implied sale outcome:
//
//	R = 0                       if q > v   (no one could have sold it)
//	R = v − p·1{p ≤ v}          otherwise
//
// This is the piecewise, asymmetric function of Fig. 1: underpricing by s
// costs s, while overpricing by any amount costs the full value v.
func SingleRoundRegret(v, q, p float64) float64 {
	if q > v {
		return 0
	}
	if p <= v {
		return v - p
	}
	return v
}

// Sold reports whether a posted price p sells against market value v.
func Sold(p, v float64) bool { return p <= v }

// RoundRecord captures everything the evaluation needs about one round.
type RoundRecord struct {
	MarketValue float64
	Reserve     float64
	Posted      float64
	Decision    Decision
	Sold        bool
	Regret      float64
	Revenue     float64
}

// Tracker accumulates the aggregates that the paper's tables and figures
// are built from: cumulative regret (Fig. 4), cumulative market value for
// regret ratios (Fig. 5), revenue, and Table I-style summaries. It keeps
// O(1) memory however long the run; a caller that plots a curve reads
// Record's return value or CumulativeRegret after each round.
type Tracker struct {
	cumRegret  float64
	cumValue   float64
	cumRevenue float64

	regretStats  *stats.Online
	valueStats   *stats.Online
	postedStats  *stats.Online
	reserveStats *stats.Online
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		regretStats:  stats.NewOnline(),
		valueStats:   stats.NewOnline(),
		postedStats:  stats.NewOnline(),
		reserveStats: stats.NewOnline(),
	}
}

// Record folds one completed round into the tracker. For skip rounds pass
// the quote with Decision == DecisionSkip; the posted price is recorded as
// the reserve (nothing was offered, and the regret definition's first
// branch applies whenever q > v). A round without a reserve passes −Inf;
// only finite reserves enter the reserve column of Table.
func (t *Tracker) Record(v, reserve float64, quote Quote) RoundRecord {
	posted := quote.Price
	sold := false
	switch quote.Decision {
	case DecisionSkip:
		posted = reserve
	default:
		sold = Sold(quote.Price, v)
	}
	r := RoundRecord{
		MarketValue: v,
		Reserve:     reserve,
		Posted:      posted,
		Decision:    quote.Decision,
		Sold:        sold,
		Regret:      SingleRoundRegret(v, reserve, posted),
	}
	if sold {
		r.Revenue = posted
	}
	t.cumRegret += r.Regret
	t.cumValue += v
	t.cumRevenue += r.Revenue
	t.regretStats.Add(r.Regret)
	t.valueStats.Add(v)
	t.postedStats.Add(posted)
	if isFinite(reserve) {
		t.reserveStats.Add(reserve)
	}
	return r
}

// Rounds returns the number of recorded rounds.
func (t *Tracker) Rounds() int { return t.regretStats.Count() }

// CumulativeRegret returns Σ R_t so far.
func (t *Tracker) CumulativeRegret() float64 { return t.cumRegret }

// CumulativeValue returns Σ v_t so far.
func (t *Tracker) CumulativeValue() float64 { return t.cumValue }

// CumulativeRevenue returns the broker's total earned revenue.
func (t *Tracker) CumulativeRevenue() float64 { return t.cumRevenue }

// RegretRatio returns Σ R_t / Σ v_t, the headline metric of Fig. 5.
func (t *Tracker) RegretRatio() float64 { return regretRatio(t.cumRegret, t.cumValue) }

// RegretRatio returns the captured tracker's Σ R_t / Σ v_t.
func (s *TrackerState) RegretRatio() float64 { return regretRatio(s.CumRegret, s.CumValue) }

func regretRatio(regret, value float64) float64 {
	if value == 0 {
		return 0
	}
	return regret / value
}

// TrackerState is the serializable state of a Tracker: the cumulative
// sums plus the four Welford accumulators behind Table().
type TrackerState struct {
	CumRegret  float64 `json:"cum_regret"`
	CumValue   float64 `json:"cum_value"`
	CumRevenue float64 `json:"cum_revenue"`

	Regret  stats.OnlineState `json:"regret"`
	Value   stats.OnlineState `json:"value"`
	Posted  stats.OnlineState `json:"posted"`
	Reserve stats.OnlineState `json:"reserve"`
}

// State captures the tracker's aggregates for durable storage.
func (t *Tracker) State() TrackerState {
	return TrackerState{
		CumRegret:  t.cumRegret,
		CumValue:   t.cumValue,
		CumRevenue: t.cumRevenue,
		Regret:     t.regretStats.State(),
		Value:      t.valueStats.State(),
		Posted:     t.postedStats.State(),
		Reserve:    t.reserveStats.State(),
	}
}

// RestoreTracker rebuilds a tracker from a captured state. The regret,
// value and posted accumulators must agree on the round count, and the
// reserve accumulator, which skips rounds without a reserve, may not
// exceed it — a state violating that was not produced by State.
func RestoreTracker(s *TrackerState) (*Tracker, error) {
	if s == nil {
		return nil, fmt.Errorf("pricing: nil tracker state")
	}
	for _, v := range [...]float64{s.CumRegret, s.CumValue, s.CumRevenue} {
		if !isFinite(v) {
			return nil, fmt.Errorf("pricing: tracker state cumulative %g invalid, want finite", v)
		}
	}
	t := NewTracker()
	var err error
	if t.regretStats, err = stats.NewOnlineFromState(s.Regret); err != nil {
		return nil, fmt.Errorf("pricing: tracker regret stats: %w", err)
	}
	if t.valueStats, err = stats.NewOnlineFromState(s.Value); err != nil {
		return nil, fmt.Errorf("pricing: tracker value stats: %w", err)
	}
	if t.postedStats, err = stats.NewOnlineFromState(s.Posted); err != nil {
		return nil, fmt.Errorf("pricing: tracker posted stats: %w", err)
	}
	if t.reserveStats, err = stats.NewOnlineFromState(s.Reserve); err != nil {
		return nil, fmt.Errorf("pricing: tracker reserve stats: %w", err)
	}
	n := t.regretStats.Count()
	if t.valueStats.Count() != n || t.postedStats.Count() != n || t.reserveStats.Count() > n {
		return nil, fmt.Errorf("pricing: tracker state accumulators disagree on round count")
	}
	t.cumRegret, t.cumValue, t.cumRevenue = s.CumRegret, s.CumValue, s.CumRevenue
	return t, nil
}

// TableRow is one row of a Table I-style statistics table: per-round means
// and standard deviations in the paper's "mean (std)" format.
type TableRow struct {
	MarketValue stats.Summary
	Reserve     stats.Summary
	Posted      stats.Summary
	Regret      stats.Summary
}

// Table returns the Table I row for this run.
func (t *Tracker) Table() TableRow {
	return TableRow{
		MarketValue: onlineSummary(t.valueStats),
		Reserve:     onlineSummary(t.reserveStats),
		Posted:      onlineSummary(t.postedStats),
		Regret:      onlineSummary(t.regretStats),
	}
}

func onlineSummary(o *stats.Online) stats.Summary {
	return stats.Summary{
		Count: o.Count(), Mean: o.Mean(), Std: o.Std(),
		Min: o.Min(), Max: o.Max(),
	}
}
