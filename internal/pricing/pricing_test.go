package pricing

import (
	"math"
	"testing"

	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

// runLinear drives a Poster through T rounds of the noiseless linear model
// v = xᵀθ*, with features drawn uniformly on the sphere and reserve prices
// from the supplied function. It returns the tracker and the cumulative
// regret after each round.
func runLinear(t *testing.T, p Poster, theta linalg.Vector, T int, seed uint64,
	reserveOf func(x linalg.Vector, v float64) float64) (*Tracker, []float64) {
	t.Helper()
	r := randx.New(seed)
	tr := NewTracker()
	curve := make([]float64, 0, T)
	for i := 0; i < T; i++ {
		x := r.OnSphere(len(theta))
		v := x.Dot(theta)
		q := reserveOf(x, v)
		quote, err := p.PostPrice(x, q)
		if err != nil {
			t.Fatalf("round %d: PostPrice: %v", i, err)
		}
		if quote.Decision != DecisionSkip {
			if err := p.Observe(Sold(quote.Price, v)); err != nil {
				t.Fatalf("round %d: Observe: %v", i, err)
			}
		}
		tr.Record(v, q, quote)
		curve = append(curve, tr.CumulativeRegret())
	}
	return tr, curve
}

func noReserve(linalg.Vector, float64) float64 { return math.Inf(-1) }

// positiveSphere returns a uniform unit vector folded into the positive
// orthant — the shape of the paper's compensation-derived features (§V-A),
// which are non-negative and L2-normalized.
func positiveSphere(r *randx.RNG, n int) linalg.Vector {
	v := r.OnSphere(n)
	for i := range v {
		v[i] = math.Abs(v[i])
	}
	return v
}

// positiveTheta draws a positive weight vector scaled to ‖θ*‖ = √(2n),
// matching the paper's construction that keeps market values above the
// compensation-based reserve with high probability.
func positiveTheta(r *randx.RNG, n int) linalg.Vector {
	th := r.NormalVector(n, 1)
	for i := range th {
		th[i] = math.Abs(th[i])
	}
	th.Normalize()
	return th.Scale(math.Sqrt(2 * float64(n)))
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := New(2, 0); err == nil {
		t.Fatal("expected error for radius 0")
	}
	if _, err := New(2, 1, WithUncertainty(-1)); err == nil {
		t.Fatal("expected error for negative delta")
	}
	if _, err := New(2, 1, WithThreshold(0)); err == nil {
		t.Fatal("expected error for zero threshold")
	}
	m, err := New(3, 2, WithReserve(), WithUncertainty(0.1), WithThreshold(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 3 || !m.UsesReserve() || m.Delta() != 0.1 || m.Threshold() != 0.5 {
		t.Fatalf("accessors wrong: %v %v %v %v", m.Dim(), m.UsesReserve(), m.Delta(), m.Threshold())
	}
}

func TestProtocolErrors(t *testing.T) {
	m, _ := New(2, 1, WithThreshold(0.01))
	if err := m.Observe(true); err != ErrNoPendingRound {
		t.Fatalf("Observe without round: %v", err)
	}
	x := linalg.VectorOf(1, 0)
	if _, err := m.PostPrice(linalg.VectorOf(1), 0); err == nil {
		t.Fatal("expected dimension error")
	}
	if _, err := m.PostPrice(x, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PostPrice(x, 0); err != ErrPendingRound {
		t.Fatalf("double PostPrice: %v", err)
	}
	if err := m.Observe(true); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe(true); err != ErrNoPendingRound {
		t.Fatalf("double Observe: %v", err)
	}
}

func TestSkipRoundNeedsNoObserve(t *testing.T) {
	m, _ := New(2, 1, WithReserve(), WithThreshold(0.01))
	x := linalg.VectorOf(1, 0)
	// Max possible value is 1; a reserve of 5 forces a skip.
	q, err := m.PostPrice(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	if q.Decision != DecisionSkip {
		t.Fatalf("decision = %v, want skip", q.Decision)
	}
	// Next round can proceed immediately.
	if _, err := m.PostPrice(x, 0); err != nil {
		t.Fatalf("PostPrice after skip: %v", err)
	}
	c := m.Counters()
	if c.Skips != 1 || c.Rounds != 2 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestPureVersionIgnoresReserve(t *testing.T) {
	m, _ := New(2, 1, WithThreshold(0.01)) // Algorithm 1*: no reserve
	x := linalg.VectorOf(1, 0)
	q, err := m.PostPrice(x, 100) // huge reserve must be ignored
	if err != nil {
		t.Fatal(err)
	}
	if q.Decision == DecisionSkip || q.ReserveBinding {
		t.Fatalf("pure version honoured the reserve: %+v", q)
	}
	// Exploratory price is the middle price 0 for a centered ball.
	if math.Abs(q.Price) > 1e-12 {
		t.Fatalf("price = %v, want middle 0", q.Price)
	}
}

func TestExploratoryIsBisectionAndConservativeIsFloor(t *testing.T) {
	m, _ := New(2, 2, WithThreshold(0.05))
	x := linalg.VectorOf(0, 1)
	q, _ := m.PostPrice(x, math.Inf(-1))
	if q.Decision != DecisionExploratory {
		t.Fatalf("first round should explore, got %v", q.Decision)
	}
	if math.Abs(q.Price-(q.Lower+q.Upper)/2) > 1e-12 {
		t.Fatalf("exploratory price %v is not the middle of [%v, %v]", q.Price, q.Lower, q.Upper)
	}
	// Drive to convergence along this direction, then expect conservative.
	theta := linalg.VectorOf(0.3, 0.9)
	for i := 0; i < 200; i++ {
		if q.Decision == DecisionConservative {
			break
		}
		v := x.Dot(theta)
		if err := m.Observe(Sold(q.Price, v)); err != nil {
			t.Fatal(err)
		}
		q, _ = m.PostPrice(x, math.Inf(-1))
	}
	if q.Decision != DecisionConservative {
		t.Fatal("mechanism never became conservative along a fixed direction")
	}
	if math.Abs(q.Price-q.Lower) > 1e-12 {
		t.Fatalf("conservative price %v != lower bound %v (δ=0)", q.Price, q.Lower)
	}
	// δ=0 conservative price must sell.
	if q.Price > x.Dot(theta)+1e-9 {
		t.Fatalf("conservative price %v above value %v", q.Price, x.Dot(theta))
	}
}

func TestTruthNeverExpelledNoiseless(t *testing.T) {
	r := randx.New(3)
	n := 6
	theta := r.OnSphere(n).Scale(1.2)
	m, _ := New(n, 2, WithThreshold(0.01))
	for i := 0; i < 500; i++ {
		x := r.OnSphere(n)
		v := x.Dot(theta)
		q, err := m.PostPrice(x, math.Inf(-1))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(Sold(q.Price, v)); err != nil {
			t.Fatal(err)
		}
		if !m.Knowledge().Contains(theta, 1e-6) {
			t.Fatalf("round %d: θ* expelled from knowledge set", i)
		}
	}
	if c := m.Counters(); c.CutsInfeasible != 0 {
		t.Fatalf("infeasible cuts occurred: %+v", c)
	}
}

func TestValueBoundsAlwaysBracketTruth(t *testing.T) {
	r := randx.New(4)
	n := 4
	theta := r.OnSphere(n)
	m, _ := New(n, 1.5, WithThreshold(0.02))
	for i := 0; i < 300; i++ {
		x := r.OnSphere(n)
		v := x.Dot(theta)
		lo, hi := m.ValueBounds(x)
		if v < lo-1e-7 || v > hi+1e-7 {
			t.Fatalf("round %d: value %v outside [%v, %v]", i, v, lo, hi)
		}
		q, _ := m.PostPrice(x, math.Inf(-1))
		m.Observe(Sold(q.Price, v))
	}
}

func TestExploratoryRoundsWithinLemma6Bound(t *testing.T) {
	for _, n := range []int{2, 5, 10} {
		r := randx.New(uint64(100 + n))
		theta := r.OnSphere(n)
		eps := 0.05
		m, _ := New(n, 1, WithThreshold(eps))
		T := 20000
		for i := 0; i < T; i++ {
			x := r.OnSphere(n)
			v := x.Dot(theta)
			q, _ := m.PostPrice(x, math.Inf(-1))
			m.Observe(Sold(q.Price, v))
		}
		bound := ExploratoryBound(n, 1, 1, eps)
		got := float64(m.Counters().Exploratory)
		if got > bound {
			t.Fatalf("n=%d: exploratory rounds %v exceed Lemma 6 bound %v", n, got, bound)
		}
	}
}

func TestRegretSublinearNoiseless(t *testing.T) {
	n := 5
	r := randx.New(7)
	theta := r.OnSphere(n)
	T := 20000
	eps := DefaultThreshold(n, T, 0)
	m, _ := New(n, 1, WithThreshold(eps))
	tr, curve := runLinear(t, m, theta, T, 8, noReserve)

	// Average regret over the last quarter must be far below the average
	// market value magnitude — the mechanism has converged.
	lastQ := (curve[T-1] - curve[3*T/4]) / float64(T/4)
	if lastQ > 0.01 {
		t.Fatalf("late per-round regret %v — mechanism did not converge", lastQ)
	}
	// Total regret must be a small fraction of total absolute value.
	if ratio := tr.CumulativeRegret() / float64(T); ratio > 0.05 {
		t.Fatalf("mean regret %v too high", ratio)
	}
}

func TestReserveReducesOrMatchesRegret(t *testing.T) {
	// §V-A headline: on the paper-style positive instance with reserves
	// below the market value, the version with reserve must not accumulate
	// meaningfully more regret than the pure version on the same stream —
	// empirically it reduces regret by mitigating cold start.
	n := 8
	T := 5000
	r0 := randx.New(11)
	theta := positiveTheta(r0, n)
	radius := 2 * math.Sqrt(float64(n))
	eps := DefaultThreshold(n, T, 0)

	run := func(withReserve bool) *Tracker {
		opts := []Option{WithThreshold(eps)}
		if withReserve {
			opts = append(opts, WithReserve())
		}
		m, err := New(n, radius, opts...)
		if err != nil {
			t.Fatal(err)
		}
		r := randx.New(13) // identical stream for both versions
		tr := NewTracker()
		for i := 0; i < T; i++ {
			x := positiveSphere(r, n)
			v := x.Dot(theta)
			reserve := 0.7 * v
			q, err := m.PostPrice(x, reserve)
			if err != nil {
				t.Fatal(err)
			}
			if q.Decision != DecisionSkip {
				m.Observe(Sold(q.Price, v))
			}
			tr.Record(v, reserve, q)
		}
		return tr
	}

	trPure := run(false)
	trRes := run(true)
	if trRes.CumulativeRegret() > trPure.CumulativeRegret()*1.1 {
		t.Fatalf("reserve increased regret: %v vs pure %v",
			trRes.CumulativeRegret(), trPure.CumulativeRegret())
	}
}

func TestUncertaintyBufferKeepsTruth(t *testing.T) {
	// With subGaussian noise bounded by the buffer, θ* must survive.
	n := 4
	T := 3000
	r := randx.New(17)
	theta := r.OnSphere(n)
	sigma := randx.SigmaForBuffer(0.01, T)
	noise, _ := randx.NewSubGaussianNoise(randx.NoiseNormal, sigma)
	eps := DefaultThreshold(n, T, 0.01)
	m, _ := New(n, 1, WithThreshold(eps), WithUncertainty(0.01))
	for i := 0; i < T; i++ {
		x := r.OnSphere(n)
		v := x.Dot(theta) + noise.Sample(r)
		q, err := m.PostPrice(x, math.Inf(-1))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(Sold(q.Price, v)); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Knowledge().Contains(theta, 1e-6) {
		t.Fatal("θ* expelled despite uncertainty buffer")
	}
}

func TestConservativePriceUsesBuffer(t *testing.T) {
	delta := 0.05
	m, _ := New(2, 1, WithThreshold(10), WithUncertainty(delta)) // force conservative
	x := linalg.VectorOf(1, 0)
	q, err := m.PostPrice(x, math.Inf(-1))
	if err != nil {
		t.Fatal(err)
	}
	if q.Decision != DecisionConservative {
		t.Fatalf("decision = %v", q.Decision)
	}
	if math.Abs(q.Price-(q.Lower-delta)) > 1e-12 {
		t.Fatalf("conservative price %v, want p̲−δ = %v", q.Price, q.Lower-delta)
	}
}

func TestSkipThresholdIncludesBuffer(t *testing.T) {
	delta := 0.1
	m, _ := New(2, 1, WithReserve(), WithThreshold(0.01), WithUncertainty(delta))
	x := linalg.VectorOf(1, 0) // p̄ = 1
	// Reserve in (p̄, p̄+δ) must NOT skip under uncertainty.
	q, err := m.PostPrice(x, 1.05)
	if err != nil {
		t.Fatal(err)
	}
	if q.Decision == DecisionSkip {
		t.Fatal("skipped although reserve < p̄ + δ")
	}
	m.Observe(false)
	// Reserve ≥ p̄+δ must skip.
	q, err = m.PostPrice(x, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if q.Decision != DecisionSkip {
		t.Fatalf("decision = %v, want skip", q.Decision)
	}
}

func TestDefaultThreshold(t *testing.T) {
	// n = 1: log₂(T)/T (Theorem 3).
	T := 1024
	want := math.Log2(float64(T)) / float64(T)
	if got := DefaultThreshold(1, T, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("1-D threshold = %v, want %v", got, want)
	}
	// n ≥ 2: max(n²/T, 4nδ).
	if got := DefaultThreshold(10, 1000, 0); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("threshold = %v, want 0.1", got)
	}
	if got := DefaultThreshold(10, 1000000, 0.01); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("threshold = %v, want 4nδ = 0.4", got)
	}
	if got := DefaultThreshold(2, 0, 0); got <= 0 {
		t.Fatalf("degenerate horizon threshold = %v", got)
	}
}

func TestDecisionString(t *testing.T) {
	if DecisionSkip.String() != "skip" ||
		DecisionExploratory.String() != "exploratory" ||
		DecisionConservative.String() != "conservative" {
		t.Fatal("Decision strings wrong")
	}
	if Decision(9).String() != "Decision(9)" {
		t.Fatal("unknown decision string wrong")
	}
}

func TestCountersConsistency(t *testing.T) {
	n := 3
	r := randx.New(23)
	theta := r.OnSphere(n)
	m, _ := New(n, 1, WithReserve(), WithThreshold(0.05))
	T := 2000
	skips := 0
	for i := 0; i < T; i++ {
		x := r.OnSphere(n)
		v := x.Dot(theta)
		reserve := v * r.Uniform(0.5, 1.5) // sometimes above value
		q, err := m.PostPrice(x, reserve)
		if err != nil {
			t.Fatal(err)
		}
		if q.Decision == DecisionSkip {
			skips++
			continue
		}
		m.Observe(Sold(q.Price, v))
	}
	c := m.Counters()
	if c.Rounds != T {
		t.Fatalf("rounds = %d, want %d", c.Rounds, T)
	}
	if c.Skips != skips {
		t.Fatalf("skips = %d, want %d", c.Skips, skips)
	}
	if c.Exploratory+c.Conservative+c.Skips != T {
		t.Fatalf("decision counts don't add up: %+v", c)
	}
	if c.Accepts+c.Rejects != T-skips {
		t.Fatalf("feedback counts don't add up: %+v", c)
	}
}
