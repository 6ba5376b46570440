package pricing

import (
	"math"
	"testing"

	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

func TestLinks(t *testing.T) {
	for _, l := range []Link{IdentityLink{}, ExpLink{}, LogisticLink{}} {
		// Inverse really inverts on the interior of the range.
		for _, z := range []float64{-2, -0.5, 0, 0.5, 2} {
			v := l.Apply(z)
			if got := l.Inverse(v); math.Abs(got-z) > 1e-9 {
				t.Fatalf("%s: Inverse(Apply(%v)) = %v", l.Name(), z, got)
			}
		}
		// Non-decreasing.
		prev := math.Inf(-1)
		for z := -5.0; z <= 5; z += 0.25 {
			v := l.Apply(z)
			if v < prev {
				t.Fatalf("%s not non-decreasing at %v", l.Name(), z)
			}
			prev = v
		}
	}
	if (IdentityLink{}).Name() != "identity" || (ExpLink{}).Name() != "exp" || (LogisticLink{}).Name() != "logistic" {
		t.Fatal("link names wrong")
	}
}

func TestFeatureMaps(t *testing.T) {
	x := linalg.VectorOf(1, math.E)
	if got, err := (IdentityMap{}).Map(x); err != nil || !got.Equal(x, 0) {
		t.Fatalf("identity map changed input (err %v)", err)
	}
	lg, err := (LogMap{}).Map(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lg[0]) > 1e-12 || math.Abs(lg[1]-1) > 1e-12 {
		t.Fatalf("log map = %v", lg)
	}
	if (LogMap{}).OutDim(7) != 7 || (IdentityMap{}).OutDim(3) != 3 {
		t.Fatal("OutDim wrong")
	}
}

// rbf is a minimal kernel for landmark tests (the full kernel package has
// its own; pricing only needs the interface).
type rbf struct{ gamma float64 }

func (k rbf) Eval(x, y linalg.Vector) float64 {
	d := x.Sub(y)
	return math.Exp(-k.gamma * d.Dot(d))
}
func (k rbf) Name() string { return "rbf" }

func TestLandmarkMap(t *testing.T) {
	lms := []linalg.Vector{linalg.VectorOf(0, 0), linalg.VectorOf(1, 0)}
	m, err := NewLandmarkMap(rbf{1}, lms)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := m.Map(linalg.VectorOf(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phi[0]-1) > 1e-12 {
		t.Fatalf("kernel self-similarity = %v", phi[0])
	}
	if math.Abs(phi[1]-math.Exp(-1)) > 1e-12 {
		t.Fatalf("kernel cross = %v", phi[1])
	}
	if m.OutDim(2) != 2 {
		t.Fatalf("OutDim = %d", m.OutDim(2))
	}
	if _, err := NewLandmarkMap(nil, lms); err == nil {
		t.Fatal("expected nil kernel error")
	}
	if _, err := NewLandmarkMap(rbf{1}, nil); err == nil {
		t.Fatal("expected empty landmarks error")
	}
	bad := []linalg.Vector{linalg.VectorOf(1), linalg.VectorOf(1, 2)}
	if _, err := NewLandmarkMap(rbf{1}, bad); err == nil {
		t.Fatal("expected ragged landmark error")
	}
	// Landmarks must be copied, not aliased.
	lms[0][0] = 99
	phi2, err := m.Map(linalg.VectorOf(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if phi2[0] != phi[0] {
		t.Fatal("landmark aliased caller's slice")
	}
}

func TestModelConstructorsAndValue(t *testing.T) {
	theta := linalg.VectorOf(0.5, -0.25)
	x := linalg.VectorOf(2, 4)
	z := x.Dot(theta) // 1 - 1 = 0
	if v := LinearModel().Value(x, theta); math.Abs(v-z) > 1e-12 {
		t.Fatalf("linear value = %v", v)
	}
	if v := LogLinearModel().Value(x, theta); math.Abs(v-math.Exp(z)) > 1e-12 {
		t.Fatalf("log-linear value = %v", v)
	}
	if v := LogisticModel().Value(x, theta); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("logistic value = %v, want 0.5", v)
	}
	lgx, err := (LogMap{}).Map(x)
	if err != nil {
		t.Fatal(err)
	}
	zz := lgx.Dot(theta)
	if v := LogLogModel().Value(x, theta); math.Abs(v-math.Exp(zz)) > 1e-12 {
		t.Fatalf("log-log value = %v", v)
	}
}

func TestNewNonlinearValidation(t *testing.T) {
	if _, err := NewNonlinear(Model{}, 2, 1); err == nil {
		t.Fatal("expected error for empty model")
	}
	if _, err := NewNonlinear(LinearModel(), 0, 1); err == nil {
		t.Fatal("expected dimension error")
	}
}

// runNonlinear drives a nonlinear mechanism on the model's ground truth.
func runNonlinear(t *testing.T, model Model, theta linalg.Vector, n, T int,
	seed uint64, sampleX func(r *randx.RNG) linalg.Vector,
	reserveOf func(v float64) float64, opts ...Option) *Tracker {
	t.Helper()
	nm, err := NewNonlinear(model, n, theta.Norm2()*1.5, opts...)
	if err != nil {
		t.Fatal(err)
	}
	r := randx.New(seed)
	tr := NewTracker()
	for i := 0; i < T; i++ {
		x := sampleX(r)
		v := model.Value(x, theta)
		reserve := reserveOf(v)
		q, err := nm.PostPrice(x, reserve)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if q.Decision != DecisionSkip {
			if err := nm.Observe(Sold(q.Price, v)); err != nil {
				t.Fatal(err)
			}
		}
		tr.Record(v, reserve, q)
	}
	return tr
}

func TestLogLinearMechanismConverges(t *testing.T) {
	n := 4
	r0 := randx.New(41)
	theta := r0.OnSphere(n).Scale(0.8)
	T := 4000
	tr := runNonlinear(t, LogLinearModel(), theta, n, T, 42,
		func(r *randx.RNG) linalg.Vector { return r.OnSphere(n) },
		func(float64) float64 { return math.Inf(-1) },
		WithThreshold(DefaultThreshold(n, T, 0)))
	if ratio := tr.RegretRatio(); ratio > 0.12 {
		t.Fatalf("log-linear regret ratio %v too high", ratio)
	}
}

func TestLogisticMechanismConverges(t *testing.T) {
	n := 4
	r0 := randx.New(43)
	theta := r0.OnSphere(n).Scale(1.5)
	T := 4000
	tr := runNonlinear(t, LogisticModel(), theta, n, T, 44,
		func(r *randx.RNG) linalg.Vector { return r.OnSphere(n) },
		func(float64) float64 { return math.Inf(-1) },
		WithThreshold(DefaultThreshold(n, T, 0)))
	if ratio := tr.RegretRatio(); ratio > 0.12 {
		t.Fatalf("logistic regret ratio %v too high", ratio)
	}
}

func TestLogLogMechanismConverges(t *testing.T) {
	n := 3
	r0 := randx.New(45)
	theta := r0.OnSphere(n).Scale(0.5)
	T := 3000
	tr := runNonlinear(t, LogLogModel(), theta, n, T, 46,
		func(r *randx.RNG) linalg.Vector { return r.UniformVector(n, 0.5, 2) },
		func(float64) float64 { return math.Inf(-1) },
		WithThreshold(0.003))
	if ratio := tr.RegretRatio(); ratio > 0.12 {
		t.Fatalf("log-log regret ratio %v too high", ratio)
	}
}

func TestKernelizedMechanismConverges(t *testing.T) {
	// Ground truth lives in the landmark feature space.
	r0 := randx.New(47)
	var lms []linalg.Vector
	for i := 0; i < 6; i++ {
		lms = append(lms, r0.OnSphere(2))
	}
	lmap, err := NewLandmarkMap(rbf{0.5}, lms)
	if err != nil {
		t.Fatal(err)
	}
	model := KernelizedModel(lmap)
	theta := r0.OnSphere(len(lms)).Scale(0.7)
	T := 4000
	tr := runNonlinear(t, model, theta, 2, T, 48,
		func(r *randx.RNG) linalg.Vector { return r.OnSphere(2) },
		func(float64) float64 { return math.Inf(-1) },
		WithThreshold(0.005))
	// Kernel features are correlated, convergence is slower; still the
	// ratio must be clearly sub-baseline.
	if ratio := tr.RegretRatio(); math.Abs(ratio) > 0.25 {
		t.Fatalf("kernelized regret ratio %v too high", ratio)
	}
}

func TestNonlinearReserveSemantics(t *testing.T) {
	// Exp link: non-positive reserve is non-binding; large reserve skips.
	nm, err := NewNonlinear(LogLinearModel(), 2, 1, WithReserve(), WithThreshold(0.01))
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.VectorOf(1, 0)
	q, err := nm.PostPrice(x, 0) // reserve 0 under exp: cannot bind
	if err != nil {
		t.Fatal(err)
	}
	if q.Decision == DecisionSkip || q.ReserveBinding {
		t.Fatalf("zero reserve affected exp-link pricing: %+v", q)
	}
	nm.Observe(false)
	// Score bounds are [−1, 1] ⇒ value bounds [e⁻¹, e]. Reserve above e skips.
	q, err = nm.PostPrice(x, 10)
	if err != nil {
		t.Fatal(err)
	}
	if q.Decision != DecisionSkip {
		t.Fatalf("huge reserve did not skip: %+v", q)
	}
	// Logistic link: reserve ≥ 1 always skips (values live in (0,1)).
	lm, _ := NewNonlinear(LogisticModel(), 2, 1, WithReserve(), WithThreshold(0.01))
	q, err = lm.PostPrice(x, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if q.Decision != DecisionSkip {
		t.Fatalf("logistic reserve ≥ 1 did not skip: %+v", q)
	}
}

func TestNonlinearQuoteInValueSpace(t *testing.T) {
	nm, _ := NewNonlinear(LogLinearModel(), 2, 1, WithThreshold(0.01))
	x := linalg.VectorOf(0.6, 0.8)
	q, err := nm.PostPrice(x, math.Inf(-1))
	if err != nil {
		t.Fatal(err)
	}
	// Bounds must be exp of the score-space ball support: [e⁻¹, e¹].
	if math.Abs(q.Lower-math.Exp(-1)) > 1e-9 || math.Abs(q.Upper-math.Exp(1)) > 1e-9 {
		t.Fatalf("value bounds = [%v, %v]", q.Lower, q.Upper)
	}
	// Exploratory price = g(middle of score space) = g(0) = 1.
	if math.Abs(q.Price-1) > 1e-9 {
		t.Fatalf("price = %v, want 1", q.Price)
	}
	nm.Observe(true)
	if nm.Counters().Accepts != 1 {
		t.Fatal("counters not forwarded")
	}
	if nm.Model().Link.Name() != "exp" {
		t.Fatal("Model accessor wrong")
	}
	if nm.Inner() == nil {
		t.Fatal("Inner accessor nil")
	}
}

// TestLandmarkMapInputValidation is the regression test for malformed
// inputs: a wrong-dimension vector used to panic inside the kernel's dot
// product, and a NaN entry fed NaN scores into the knowledge set.
func TestLandmarkMapInputValidation(t *testing.T) {
	m, err := NewLandmarkMap(rbf{1}, []linalg.Vector{linalg.VectorOf(0, 0), linalg.VectorOf(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		x    linalg.Vector
	}{
		{"short", linalg.VectorOf(1)},
		{"long", linalg.VectorOf(1, 2, 3)},
		{"nan", linalg.VectorOf(math.NaN(), 0)},
		{"+inf", linalg.VectorOf(0, math.Inf(1))},
		{"-inf", linalg.VectorOf(math.Inf(-1), 0)},
	}
	for _, tc := range cases {
		if _, err := m.Map(tc.x); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
	if m.InDim() != 2 {
		t.Fatalf("InDim = %d", m.InDim())
	}
	// Non-finite landmarks are rejected at construction.
	if _, err := NewLandmarkMap(rbf{1}, []linalg.Vector{linalg.VectorOf(math.NaN(), 0)}); err == nil {
		t.Fatal("NaN landmark accepted")
	}
	// The log map enforces its domain the same way.
	for _, bad := range []linalg.Vector{
		linalg.VectorOf(1, 0), linalg.VectorOf(-1, 1), linalg.VectorOf(math.NaN(), 1), linalg.VectorOf(math.Inf(1), 1),
	} {
		if _, err := (LogMap{}).Map(bad); err == nil {
			t.Fatalf("log map accepted %v", bad)
		}
	}
	if v := LogLogModel().Value(linalg.VectorOf(-1, 1), linalg.VectorOf(1, 1)); !math.IsNaN(v) {
		t.Fatalf("out-of-domain Value = %v, want NaN", v)
	}
}

// TestNonlinearMechanismInputValidation rejects malformed inputs before
// they reach the score-space ellipsoid, and keeps the mechanism usable.
func TestNonlinearMechanismInputValidation(t *testing.T) {
	lm, err := NewLandmarkMap(rbf{1}, []linalg.Vector{linalg.VectorOf(0, 0), linalg.VectorOf(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	nm, err := NewNonlinear(KernelizedModel(lm), 2, 1, WithThreshold(0.05))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []linalg.Vector{
		linalg.VectorOf(1), linalg.VectorOf(1, 2, 3), linalg.VectorOf(math.NaN(), 0),
	} {
		if _, err := nm.PostPrice(bad, 0); err == nil {
			t.Fatalf("accepted %v", bad)
		}
		if nm.Pending() {
			t.Fatalf("rejected round left mechanism pending")
		}
	}
	if nm.Dim() != 2 {
		t.Fatalf("Dim = %d", nm.Dim())
	}
	q, err := nm.PostPrice(linalg.VectorOf(0.5, 0.5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Decision == DecisionSkip {
		t.Fatal("unexpected skip")
	}
	if !nm.Pending() {
		t.Fatal("not pending after valid round")
	}
	if err := nm.Observe(true); err != nil {
		t.Fatal(err)
	}
}
