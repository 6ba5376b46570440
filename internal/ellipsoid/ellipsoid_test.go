package ellipsoid

import (
	"math"
	"sync"
	"testing"

	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

func TestNewBall(t *testing.T) {
	e, err := NewBall(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Dim() != 3 {
		t.Fatalf("Dim = %d", e.Dim())
	}
	if !e.Center().Equal(linalg.NewVector(3), 0) {
		t.Fatalf("center = %v", e.Center())
	}
	if e.Shape().At(0, 0) != 4 {
		t.Fatalf("shape = %v", e.Shape().At(0, 0))
	}
	if _, err := NewBall(0, 1); err == nil {
		t.Fatal("expected error for dim 0")
	}
	if _, err := NewBall(2, 0); err == nil {
		t.Fatal("expected error for radius 0")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(linalg.Identity(2), linalg.VectorOf(0)); err == nil {
		t.Fatal("expected shape/center mismatch error")
	}
	asym := linalg.MatrixFromRows([][]float64{{1, 0.5}, {0, 1}})
	if _, err := New(asym, linalg.VectorOf(0, 0)); err == nil {
		t.Fatal("expected asymmetry error")
	}
	indef := linalg.MatrixFromRows([][]float64{{1, 2}, {2, 1}})
	if _, err := New(indef, linalg.VectorOf(0, 0)); err == nil {
		t.Fatal("expected non-PD error")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, rows := range map[string][][]float64{
		"NaN above the diagonal": {{1, nan}, {0, 1}},
		"NaN below the diagonal": {{1, 0}, {nan, 1}},
		"+Inf on the diagonal":   {{inf, 0}, {0, 1}},
		"-Inf on the diagonal":   {{1, 0}, {0, -inf}},
	} {
		if _, err := New(linalg.MatrixFromRows(rows), linalg.VectorOf(0, 0)); err == nil {
			t.Errorf("%s: expected non-finite shape error", name)
		}
	}
}

func TestSupportBall(t *testing.T) {
	e, _ := NewBall(2, 3)
	x := linalg.VectorOf(1, 0)
	lo, hi := e.Support(x)
	if !almostEq(lo, -3, 1e-12) || !almostEq(hi, 3, 1e-12) {
		t.Fatalf("support = [%v, %v], want [-3, 3]", lo, hi)
	}
	// Support scales with ‖x‖ for a ball.
	lo, hi = e.Support(linalg.VectorOf(3, 4))
	if !almostEq(hi, 15, 1e-9) || !almostEq(lo, -15, 1e-9) {
		t.Fatalf("support = [%v, %v], want [-15, 15]", lo, hi)
	}
	if w := e.Width(x); !almostEq(w, 6, 1e-12) {
		t.Fatalf("width = %v, want 6", w)
	}
}

func TestSupportIsSoundOverSamples(t *testing.T) {
	r := randx.New(1)
	shape := linalg.MatrixFromRows([][]float64{{4, 1}, {1, 2}})
	e, err := New(shape, linalg.VectorOf(1, -1))
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.VectorOf(0.7, -0.2)
	lo, hi := e.Support(x)
	for i := 0; i < 300; i++ {
		p, err := e.Sample(r)
		if err != nil {
			t.Fatal(err)
		}
		v := p.Dot(x)
		if v < lo-1e-9 || v > hi+1e-9 {
			t.Fatalf("sampled value %v outside support [%v, %v]", v, lo, hi)
		}
	}
}

func TestCentralCutHalvesAndShrinks(t *testing.T) {
	e, _ := NewBall(2, 1)
	x := linalg.VectorOf(1, 0)
	// Central cut through the center: β = xᵀc = 0.
	res := e.Cut(x, 0)
	if res != CutApplied {
		t.Fatalf("central cut result = %v", res)
	}
	// Known Löwner-John ellipsoid of a half-disc: center (-1/3·b, 0)
	// with b = A·x/√(xᵀAx) = (1,0): center moves to (-1/3, 0) for
	// halfspace {θ₁ ≤ 0}.
	c := e.Center()
	if !almostEq(c[0], -1.0/3, 1e-12) || !almostEq(c[1], 0, 1e-12) {
		t.Fatalf("center after central cut = %v", c)
	}
	// Volume ratio for a central cut in n=2 is (n/(n+1))·(n/√(n²−1)) ≈ 0.7698.
	v, err := e.Volume()
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pi * (2.0 / 3) * (2 / math.Sqrt(3)) / math.Sqrt(3) // σ terms
	_ = want
	ratio := v / math.Pi
	expected := (2.0 / 3) * (2.0 / math.Sqrt(3)) * (1.0 / math.Sqrt(3)) * math.Sqrt(3) // simplify below
	_ = expected
	// Direct known value: ratio = n^n/( (n+1)^((n+1)/2) (n-1)^((n-1)/2) )... just check bound from Lemma 2:
	if !(ratio < 1) {
		t.Fatalf("central cut did not shrink volume: ratio %v", ratio)
	}
	if ratio > math.Exp(-1.0/(2*(2+1))) { // e^{-1/(2(n+1))} bound for central cuts
		t.Fatalf("central cut shrank too little: ratio %v", ratio)
	}
}

func TestCutLemma2VolumeBound(t *testing.T) {
	// Deep cuts with α ∈ [0, 1) must shrink volume at least by
	// exp(−(1+nα)²/(5n)) (Lemma 2 direction used in the paper for
	// α ∈ [−1/n, 0]; we verify over a grid including both signs).
	for _, n := range []int{2, 3, 5, 10} {
		for _, alpha := range []float64{-0.4 / float64(n), 0, 0.1, 0.3, 0.6} {
			e, _ := NewBall(n, 1)
			x := linalg.Basis(n, 0)
			beta := -alpha // c = 0, probe = 1, so α = −β
			v0, _ := e.LogVolume()
			res := e.Cut(x, beta)
			if res != CutApplied {
				t.Fatalf("n=%d α=%v: cut result %v", n, alpha, res)
			}
			v1, _ := e.LogVolume()
			bound := -(1 + float64(n)*alpha) * (1 + float64(n)*alpha) / (5 * float64(n))
			if v1-v0 > bound+1e-9 {
				t.Fatalf("n=%d α=%v: log volume drop %v exceeds bound %v", n, alpha, v1-v0, bound)
			}
			if !e.IsWellFormed() {
				t.Fatalf("n=%d α=%v: ill-formed after cut", n, alpha)
			}
		}
	}
}

func TestCutTooShallowAndInfeasible(t *testing.T) {
	e, _ := NewBall(3, 1)
	x := linalg.VectorOf(1, 0, 0)
	// α = −β; too shallow when α ≤ −1/n, i.e. β ≥ 1/3.
	before := e.Shape()
	if res := e.Cut(x, 0.5); res != CutTooShallow {
		t.Fatalf("expected too-shallow, got %v", res)
	}
	if !e.Shape().Equal(before, 0) {
		t.Fatal("too-shallow cut modified the ellipsoid")
	}
	// Infeasible when α ≥ 1, i.e. β ≤ −1.
	if res := e.Cut(x, -1.5); res != CutInfeasible {
		t.Fatalf("expected infeasible, got %v", res)
	}
	if !e.Shape().Equal(before, 0) {
		t.Fatal("infeasible cut modified the ellipsoid")
	}
}

func TestCutPreservesFeasiblePoints(t *testing.T) {
	// Any point of E satisfying the halfspace stays inside after the cut.
	r := randx.New(5)
	e, _ := NewBall(4, 2)
	// Pre-sample candidate points.
	var pts []linalg.Vector
	for len(pts) < 40 {
		p, err := e.Sample(r)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, p)
	}
	x := r.OnSphere(4)
	beta := 0.3 // a cut through the interior
	res := e.Cut(x, beta)
	if res != CutApplied {
		t.Fatalf("cut result %v", res)
	}
	for _, p := range pts {
		if p.Dot(x) <= beta {
			if !e.Contains(p, 1e-9) {
				t.Fatalf("feasible point expelled: %v", p)
			}
		}
	}
}

func TestSequentialCutsKeepTargetInside(t *testing.T) {
	// Bisection-style cuts driven by membership feedback must never expel
	// the target — the core soundness property the mechanism relies on.
	r := randx.New(7)
	n := 5
	e, _ := NewBall(n, 3)
	target := r.OnSphere(n).Scale(1.5)
	for i := 0; i < 200; i++ {
		x := r.OnSphere(n)
		lo, hi := e.Support(x)
		mid := (lo + hi) / 2
		truth := target.Dot(x)
		var res CutResult
		if truth >= mid {
			// Keep {xᵀθ ≥ mid} ⇔ cut {−xᵀθ ≤ −mid}.
			res = e.Cut(x.Scaled(-1), -mid)
		} else {
			res = e.Cut(x, mid)
		}
		if res == CutInfeasible {
			t.Fatalf("round %d: infeasible central cut", i)
		}
		if !e.Contains(target, 1e-7) {
			t.Fatalf("round %d: target expelled", i)
		}
		if !e.IsWellFormed() {
			t.Fatalf("round %d: ill-formed ellipsoid", i)
		}
	}
	// After 200 central cuts the volume must have collapsed massively.
	lv, err := e.LogVolume()
	if err != nil {
		t.Fatal(err)
	}
	lv0 := logUnitBallVolume(n) + float64(n)*math.Log(3)
	if lv > lv0-200.0/(5*float64(n)) {
		t.Fatalf("volume did not shrink as guaranteed: %v vs start %v", lv, lv0)
	}
}

func TestCut1DExactInterval(t *testing.T) {
	e, _ := NewBall(1, 4) // interval [-4, 4]
	x := linalg.VectorOf(1)
	if res := e.Cut(x, 1); res != CutApplied {
		t.Fatalf("1-D cut result %v", res)
	}
	lo, hi := e.Support(x)
	if !almostEq(lo, -4, 1e-9) || !almostEq(hi, 1, 1e-9) {
		t.Fatalf("interval after cut = [%v, %v], want [-4, 1]", lo, hi)
	}
	// Cut from the other side via negative direction: keep {θ ≥ -2}.
	if res := e.Cut(linalg.VectorOf(-1), 2); res != CutApplied {
		t.Fatal("second 1-D cut failed")
	}
	lo, hi = e.Support(x)
	if !almostEq(lo, -2, 1e-9) || !almostEq(hi, 1, 1e-9) {
		t.Fatalf("interval = [%v, %v], want [-2, 1]", lo, hi)
	}
	// Empty intersection is infeasible.
	if res := e.Cut(x, -5); res != CutInfeasible {
		t.Fatalf("expected infeasible, got %v", res)
	}
}

func TestAlpha(t *testing.T) {
	e, _ := NewBall(2, 2)
	x := linalg.VectorOf(1, 0)
	// c=0, probe = 2: α = −β/2.
	a, err := e.Alpha(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(a, -0.5, 1e-12) {
		t.Fatalf("alpha = %v, want -0.5", a)
	}
}

func TestVolumeBall(t *testing.T) {
	e, _ := NewBall(2, 2)
	v, err := e.Volume()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(v, math.Pi*4, 1e-9) {
		t.Fatalf("volume = %v, want 4π", v)
	}
	if !almostEq(UnitBallVolume(3), 4*math.Pi/3, 1e-9) {
		t.Fatalf("V₃ = %v", UnitBallVolume(3))
	}
}

func TestSampleInside(t *testing.T) {
	r := randx.New(20)
	e, _ := NewBall(3, 1.5)
	for i := 0; i < 200; i++ {
		p, err := e.Sample(r)
		if err != nil {
			t.Fatal(err)
		}
		if p.Norm2() > 1.5+1e-9 {
			t.Fatalf("sample outside ball: %v", p.Norm2())
		}
	}
}

func TestContains(t *testing.T) {
	e, _ := NewBall(2, 1)
	if !e.Contains(linalg.VectorOf(0.5, 0.5), 0) {
		t.Fatal("interior point reported outside")
	}
	if e.Contains(linalg.VectorOf(2, 0), 0) {
		t.Fatal("exterior point reported inside")
	}
	if !e.Contains(linalg.VectorOf(1, 0), 1e-9) {
		t.Fatal("boundary point reported outside")
	}
}

// TestCloneSharesNoScratch prices on an ellipsoid and on its clone from
// two goroutines at once. Under -race, a scratch buffer the two shared
// would be reported; without it, a shared buffer could mix their cuts.
func TestCloneSharesNoScratch(t *testing.T) {
	const n = 16
	e, _ := NewBall(n, 2)
	r := randx.New(3)
	dirs := make([]linalg.Vector, 50)
	for i := range dirs {
		dirs[i] = r.OnSphere(n)
	}
	lo, hi := e.Support(dirs[0]) // warm the original's scratch
	e.Cut(dirs[0], (lo+hi)/2)
	c := e.Clone()
	var wg sync.WaitGroup
	for _, el := range []*E{e, c} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, x := range dirs {
				lo, hi := el.Support(x)
				el.Cut(x, (lo+hi)/2)
			}
		}()
	}
	wg.Wait()
	if !e.Shape().Equal(c.Shape(), 0) || !e.c.Equal(c.c, 0) {
		t.Fatal("the same cuts left the ellipsoid and its clone apart")
	}
}

func TestCutResultString(t *testing.T) {
	for _, tc := range []struct {
		r    CutResult
		want string
	}{
		{CutApplied, "applied"}, {CutTooShallow, "too-shallow"},
		{CutInfeasible, "infeasible"}, {CutDegenerate, "degenerate"},
		{CutResult(99), "CutResult(99)"},
	} {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("String(%d) = %q", int(tc.r), got)
		}
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
