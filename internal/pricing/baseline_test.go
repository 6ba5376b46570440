package pricing

import (
	"math"
	"testing"

	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

func TestRiskAverseBaseline(t *testing.T) {
	b := NewRiskAverse()
	x := linalg.VectorOf(1, 2)
	q, err := b.PostPrice(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if q.Price != 3 || !q.ReserveBinding {
		t.Fatalf("quote = %+v", q)
	}
	if _, err := b.PostPrice(x, 3); err != ErrPendingRound {
		t.Fatalf("double post: %v", err)
	}
	if err := b.Observe(true); err != nil {
		t.Fatal(err)
	}
	if err := b.Observe(true); err != ErrNoPendingRound {
		t.Fatalf("double observe: %v", err)
	}
}

func TestRiskAverseRegretIsFullMarkup(t *testing.T) {
	// When q ≤ v always, the baseline's regret is exactly Σ(v−q).
	b := NewRiskAverse()
	tr := NewTracker()
	r := randx.New(51)
	var want float64
	for i := 0; i < 500; i++ {
		x := r.OnSphere(3)
		v := 1 + r.Float64()
		q := 0.6 * v
		quote, err := b.PostPrice(x, q)
		if err != nil {
			t.Fatal(err)
		}
		b.Observe(Sold(quote.Price, v))
		tr.Record(v, q, quote)
		want += v - q
	}
	if math.Abs(tr.CumulativeRegret()-want) > 1e-9 {
		t.Fatalf("baseline regret %v, want %v", tr.CumulativeRegret(), want)
	}
}

func TestMechanismBeatsRiskAverseBaseline(t *testing.T) {
	// The headline comparison of §V-A: the learning mechanism must end up
	// with a substantially lower regret ratio than always-post-reserve.
	n := 10
	T := 8000
	r := randx.New(53)
	theta := positiveTheta(r, n)
	eps := DefaultThreshold(n, T, 0)
	m, _ := New(n, 2*math.Sqrt(float64(n)), WithThreshold(eps), WithReserve())
	b := NewRiskAverse()

	trM := NewTracker()
	trB := NewTracker()
	for i := 0; i < T; i++ {
		x := positiveSphere(r, n)
		v := x.Dot(theta)
		q := 0.8 * v
		qm, err := m.PostPrice(x, q)
		if err != nil {
			t.Fatal(err)
		}
		if qm.Decision != DecisionSkip {
			m.Observe(Sold(qm.Price, v))
		}
		trM.Record(v, q, qm)

		qb, _ := b.PostPrice(x, q)
		b.Observe(Sold(qb.Price, v))
		trB.Record(v, q, qb)
	}
	if !(trM.RegretRatio() < trB.RegretRatio()*0.7) {
		t.Fatalf("mechanism ratio %v not clearly below baseline %v",
			trM.RegretRatio(), trB.RegretRatio())
	}
}
