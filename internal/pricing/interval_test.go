package pricing

import (
	"math"
	"testing"

	"datamarket/internal/randx"
)

func TestNewIntervalValidation(t *testing.T) {
	if _, err := NewInterval(1, 1); err == nil {
		t.Fatal("expected error for empty interval")
	}
	if _, err := NewInterval(2, 1); err == nil {
		t.Fatal("expected error for inverted interval")
	}
	if _, err := NewInterval(0, 1, WithUncertainty(-1)); err == nil {
		t.Fatal("expected error for negative delta")
	}
	m, err := NewInterval(0, 2, WithThreshold(0.1))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := m.Bounds()
	if lo != 0 || hi != 2 {
		t.Fatalf("bounds = [%v, %v]", lo, hi)
	}
}

func TestIntervalRejectsBadFeature(t *testing.T) {
	m, _ := NewInterval(0, 2, WithThreshold(0.1))
	for _, x := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := m.PostPrice(x, 0); err == nil {
			t.Fatalf("expected error for feature %v", x)
		}
	}
}

func TestIntervalBisectionConverges(t *testing.T) {
	theta := math.Sqrt2 // true scalar weight
	m, _ := NewInterval(0, 2, WithThreshold(1e-6))
	r := randx.New(2)
	for i := 0; i < 60; i++ {
		x := r.Uniform(0.5, 2)
		v := x * theta
		q, err := m.PostPrice(x, math.Inf(-1))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(q.Price <= v); err != nil {
			t.Fatal(err)
		}
		lo, hi := m.Bounds()
		if theta < lo-1e-9 || theta > hi+1e-9 {
			t.Fatalf("round %d: θ* = %v expelled from [%v, %v]", i, theta, lo, hi)
		}
	}
	lo, hi := m.Bounds()
	if hi-lo > 1e-5 {
		t.Fatalf("interval did not converge: [%v, %v]", lo, hi)
	}
}

func TestIntervalOneDimensionalColdStart(t *testing.T) {
	// Reproduces the paper's n=1 discussion (§V-A): with K₁ = [0, 2],
	// reserve 1, value √2 — the first exploratory price is
	// max(1, middle=1) = 1, it is accepted, and afterwards the interval is
	// [1, 2] so the reserve never binds again.
	m, _ := NewInterval(0, 2, WithReserve(), WithThreshold(1e-9))
	q, err := m.PostPrice(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Decision != DecisionExploratory || q.Price != 1 {
		t.Fatalf("first quote = %+v", q)
	}
	if err := m.Observe(true); err != nil { // 1 ≤ √2: accepted
		t.Fatal(err)
	}
	lo, hi := m.Bounds()
	if lo != 1 || hi != 2 {
		t.Fatalf("interval after first round = [%v, %v], want [1, 2]", lo, hi)
	}
	// Second round: middle price 1.5 > reserve 1 — reserve not binding.
	q, _ = m.PostPrice(1, 1)
	if q.ReserveBinding {
		t.Fatal("reserve still binding after exclusion")
	}
	if q.Price != 1.5 {
		t.Fatalf("second price = %v, want 1.5", q.Price)
	}
}

func TestIntervalSkipAndReserve(t *testing.T) {
	m, _ := NewInterval(0, 1, WithReserve(), WithThreshold(0.01))
	// Market value at most 2 for x=2; reserve 3 forces skip.
	q, err := m.PostPrice(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if q.Decision != DecisionSkip {
		t.Fatalf("decision = %v", q.Decision)
	}
	// Reserve binding on an exploratory round.
	q, _ = m.PostPrice(2, 1.5) // middle = 1, reserve 1.5 > 1
	if !q.ReserveBinding || q.Price != 1.5 {
		t.Fatalf("quote = %+v", q)
	}
	m.Observe(false)
}

func TestIntervalConservativeDoesNotRefine(t *testing.T) {
	m, _ := NewInterval(0, 1, WithThreshold(10)) // huge ε: always conservative
	lo0, hi0 := m.Bounds()
	q, _ := m.PostPrice(1, math.Inf(-1))
	if q.Decision != DecisionConservative {
		t.Fatalf("decision = %v", q.Decision)
	}
	m.Observe(false) // even a rejection must not refine
	lo1, hi1 := m.Bounds()
	if lo0 != lo1 || hi0 != hi1 {
		t.Fatal("conservative feedback refined the interval")
	}
	c := m.Counters()
	if c.CutsApplied != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestIntervalMatchesEllipsoidMechanism1D(t *testing.T) {
	// The general mechanism at n=1 and the interval mechanism must post
	// identical prices round-for-round on the same stream.
	theta := 1.3
	eps := 0.01
	iv, _ := NewInterval(-2, 2, WithThreshold(eps), WithReserve())
	ball, _ := New(1, 2, WithThreshold(eps), WithReserve()) // ball of radius 2 = [-2, 2]
	r := randx.New(31)
	for i := 0; i < 80; i++ {
		x := r.Uniform(0.5, 1.5)
		v := x * theta
		reserve := 0.6 * v
		q1, err := iv.PostPrice(x, reserve)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := ball.PostPrice(linalgVec(x), reserve)
		if err != nil {
			t.Fatal(err)
		}
		if q1.Decision != q2.Decision {
			t.Fatalf("round %d: decisions diverge: %v vs %v", i, q1.Decision, q2.Decision)
		}
		if math.Abs(q1.Price-q2.Price) > 1e-6 {
			t.Fatalf("round %d: prices diverge: %v vs %v", i, q1.Price, q2.Price)
		}
		if q1.Decision != DecisionSkip {
			sold := q1.Price <= v
			iv.Observe(sold)
			ball.Observe(sold)
		}
	}
}

func TestIntervalUncertaintyBuffer(t *testing.T) {
	delta := 0.05
	m, _ := NewInterval(0, 2, WithThreshold(10), WithUncertainty(delta))
	q, _ := m.PostPrice(1, math.Inf(-1))
	if q.Decision != DecisionConservative {
		t.Fatalf("decision = %v", q.Decision)
	}
	if math.Abs(q.Price-(q.Lower-delta)) > 1e-12 {
		t.Fatalf("price %v, want p̲−δ = %v", q.Price, q.Lower-delta)
	}
}

// Theorem 3: cumulative regret in 1-D grows like O(log T). We check that
// doubling T adds roughly a constant amount of regret (far from linear).
func TestIntervalLogRegretScaling(t *testing.T) {
	theta := math.Pi / 2
	regretAt := func(T int) float64 {
		eps := DefaultThreshold(1, T, 0)
		m, _ := NewInterval(0, 2, WithThreshold(eps))
		r := randx.New(5)
		tr := NewTracker()
		for i := 0; i < T; i++ {
			x := r.Uniform(0.5, 1)
			v := x * theta
			q, err := m.PostPrice(x, math.Inf(-1))
			if err != nil {
				t.Fatal(err)
			}
			m.Observe(q.Price <= v)
			tr.Record(v, math.Inf(-1), q)
		}
		return tr.CumulativeRegret()
	}
	r1 := regretAt(1000)
	r2 := regretAt(8000)
	// Linear growth would multiply regret by 8; logarithmic growth leaves
	// it within a small factor.
	if r2 > 3*r1+1 {
		t.Fatalf("regret grows too fast: R(1000)=%v, R(8000)=%v", r1, r2)
	}
}

func TestIntervalProtocolErrors(t *testing.T) {
	m, _ := NewInterval(0, 1, WithThreshold(0.1))
	if err := m.Observe(true); err != ErrNoPendingRound {
		t.Fatalf("Observe with no round: %v", err)
	}
	if _, err := m.PostPrice(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PostPrice(1, 0); err != ErrPendingRound {
		t.Fatalf("double PostPrice: %v", err)
	}
}

// linalgVec builds a 1-vector without importing linalg at every call site.
func linalgVec(x float64) []float64 { return []float64{x} }
