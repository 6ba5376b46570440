package pricing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSingleRoundRegretShape(t *testing.T) {
	v, q := 10.0, 4.0
	// Posted below value: regret is the underpricing gap (Fig. 1 left).
	if got := SingleRoundRegret(v, q, 7); got != 3 {
		t.Fatalf("underpricing regret = %v, want 3", got)
	}
	// Posted exactly at value: zero regret.
	if got := SingleRoundRegret(v, q, 10); got != 0 {
		t.Fatalf("exact price regret = %v, want 0", got)
	}
	// Posted above value: full value lost (Fig. 1 cliff).
	if got := SingleRoundRegret(v, q, 10.0001); got != v {
		t.Fatalf("overpricing regret = %v, want %v", got, v)
	}
	// Reserve above value: no regret regardless of price.
	if got := SingleRoundRegret(3, 4, 100); got != 0 {
		t.Fatalf("q>v regret = %v, want 0", got)
	}
}

// Lemma 1 as a property: for every (v, q, p'), pricing with the reserve
// constraint p = max(q, p') never increases the single-round regret
// relative to the unconstrained regret of p'.
func TestLemma1Property(t *testing.T) {
	f := func(rv, rq, rp float64) bool {
		v := math.Mod(math.Abs(rv), 1000)
		q := math.Mod(math.Abs(rq), 1000)
		pPrime := math.Mod(math.Abs(rp), 1000)
		p := math.Max(q, pPrime)
		withReserve := SingleRoundRegret(v, q, p)
		// Unconstrained regret per Eq. (7): no first branch.
		var unconstrained float64
		if pPrime <= v {
			unconstrained = v - pPrime
		} else {
			unconstrained = v
		}
		return withReserve <= unconstrained+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// The regret cliff: approaching the market value from below decreases
// regret monotonically; any overshoot jumps to the full value.
func TestRegretMonotoneBelowValue(t *testing.T) {
	v, q := 5.0, 1.0
	prev := math.Inf(1)
	for p := 0.0; p <= v; p += 0.25 {
		r := SingleRoundRegret(v, q, p)
		if r > prev {
			t.Fatalf("regret not monotone below value at p=%v", p)
		}
		prev = r
	}
	if r := SingleRoundRegret(v, q, v+0.01); r != v {
		t.Fatalf("cliff regret = %v", r)
	}
}

func TestTrackerAccounting(t *testing.T) {
	tr := NewTracker()
	var curve []float64
	record := func(v, reserve float64, q Quote) RoundRecord {
		rec := tr.Record(v, reserve, q)
		curve = append(curve, tr.CumulativeRegret())
		return rec
	}
	// Round 1: sold at 4 against value 5 → regret 1, revenue 4.
	rec := record(5, 1, Quote{Price: 4, Decision: DecisionConservative})
	if !rec.Sold || rec.Regret != 1 || rec.Revenue != 4 {
		t.Fatalf("rec = %+v", rec)
	}
	// Round 2: overpriced at 7 against value 5 → no sale, regret 5.
	rec = record(5, 1, Quote{Price: 7, Decision: DecisionExploratory})
	if rec.Sold || rec.Regret != 5 || rec.Revenue != 0 {
		t.Fatalf("rec = %+v", rec)
	}
	// Round 3: skip with q > v → regret 0.
	rec = record(5, 9, Quote{Decision: DecisionSkip})
	if rec.Sold || rec.Regret != 0 {
		t.Fatalf("skip rec = %+v", rec)
	}
	if tr.Rounds() != 3 {
		t.Fatalf("rounds = %d", tr.Rounds())
	}
	if tr.CumulativeRegret() != 6 || tr.CumulativeValue() != 15 || tr.CumulativeRevenue() != 4 {
		t.Fatalf("cumulative: %v %v %v", tr.CumulativeRegret(), tr.CumulativeValue(), tr.CumulativeRevenue())
	}
	if math.Abs(tr.RegretRatio()-0.4) > 1e-12 {
		t.Fatalf("ratio = %v", tr.RegretRatio())
	}
	if len(curve) != 3 || curve[0] != 1 || curve[1] != 6 || curve[2] != 6 {
		t.Fatalf("curve = %v", curve)
	}
	row := tr.Table()
	if row.MarketValue.Count != 3 || math.Abs(row.MarketValue.Mean-5) > 1e-12 {
		t.Fatalf("table row = %+v", row)
	}
}

func TestTrackerSkipRecordsReserveAsPosted(t *testing.T) {
	tr := NewTracker()
	rec := tr.Record(2, 10, Quote{Price: 12345, Decision: DecisionSkip})
	if rec.Posted != 10 {
		t.Fatalf("skip posted = %v, want reserve 10", rec.Posted)
	}
}

// TestTrackerWithoutReserve pins that a round without a reserve (−Inf)
// leaves the reserve column empty, not NaN, and that such a tracker's
// state restores.
func TestTrackerWithoutReserve(t *testing.T) {
	tr := NewTracker()
	tr.Record(5, math.Inf(-1), Quote{Price: 4, Decision: DecisionExploratory})
	tr.Record(6, math.Inf(-1), Quote{Price: 7, Decision: DecisionExploratory})
	row := tr.Table()
	if row.Reserve.Count != 0 || row.Reserve.String() != "n/a" {
		t.Fatalf("reserve column = %+v (%s), want empty", row.Reserve, row.Reserve)
	}
	if row.Posted.Count != 2 || row.Posted.String() != "5.500 (1.500)" {
		t.Fatalf("posted column = %+v (%s)", row.Posted, row.Posted)
	}
	tr.Record(5, 1, Quote{Price: 4, Decision: DecisionExploratory})
	st := tr.State()
	back, err := RestoreTracker(&st)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rounds() != 3 || back.Table() != tr.Table() {
		t.Fatalf("restored table %+v, want %+v", back.Table(), tr.Table())
	}
	st.Reserve.N = 4
	if _, err := RestoreTracker(&st); err == nil {
		t.Fatal("restored a state with more reserves than rounds")
	}
}

func TestTrackerWithoutRecords(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < 100; i++ {
		tr.Record(1, 0, Quote{Price: 0.5, Decision: DecisionConservative})
	}
	if tr.Rounds() != 100 || tr.CumulativeRegret() != 50 {
		t.Fatalf("aggregates wrong: %d %v", tr.Rounds(), tr.CumulativeRegret())
	}
}

func TestRegretRatioEmpty(t *testing.T) {
	tr := NewTracker()
	if tr.RegretRatio() != 0 {
		t.Fatal("empty ratio must be 0")
	}
}

func TestSold(t *testing.T) {
	if !Sold(1, 1) || !Sold(0.5, 1) || Sold(1.01, 1) {
		t.Fatal("Sold boundary wrong")
	}
}
