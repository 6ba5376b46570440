//go:build !race

package ellipsoid

import (
	"fmt"
	"math"
	"testing"

	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

// fullKnowledge is an ellipsoid held as a full n×n row-major shape matrix
// and driven by full-matrix kernels: Matrix.QuadForm for the support and
// the cut position, Matrix.MulVecT for the cut vector, and an update of
// all n² entries. E, which stores and updates only the upper triangle,
// must agree with it bit for bit. It covers n ≥ 2 only.
type fullKnowledge struct {
	a *linalg.Matrix
	c linalg.Vector
}

func (f *fullKnowledge) support(x linalg.Vector) (lo, hi float64) {
	mid := f.c.Dot(x)
	half := math.Sqrt(math.Max(0, f.a.QuadForm(x)))
	return mid - half, mid + half
}

func (f *fullKnowledge) alpha(a linalg.Vector, beta float64) (float64, error) {
	probe := math.Sqrt(math.Max(0, f.a.QuadForm(a)))
	if probe < minProbe {
		return 0, ErrDegenerate
	}
	return (f.c.Dot(a) - beta) / probe, nil
}

// cut is the deep-cut update on the full matrix. With threeSweep it forms
// A′ as a rank-one update, a scale, then a Symmetrize that averages away
// the asymmetry forming (−ρ·bᵢ)·bⱼ row by row leaves; Cut must agree with
// that to within rounding. Otherwise it rewrites every entry in one pass
// as σ·(Aᵢⱼ − ρ·(bᵢ·bⱼ)), which Cut must match exactly.
func (f *fullKnowledge) cut(a linalg.Vector, beta float64, threeSweep bool) CutResult {
	b := f.a.MulVecT(a)
	probe := math.Sqrt(math.Max(0, a.Dot(b)))
	if probe < minProbe {
		return CutDegenerate
	}
	alpha := (f.c.Dot(a) - beta) / probe
	n := float64(len(a))
	if alpha >= 1 {
		return CutInfeasible
	}
	if alpha <= -1/n {
		return CutTooShallow
	}
	b.Scale(1 / probe)
	tau := (1 + float64(n*alpha)) / (n + 1)
	sigma := n * n * (1 - float64(alpha*alpha)) / (float64(n*n) - 1)
	rho := 2 * (1 + float64(n*alpha)) / ((n + 1) * (1 + alpha))
	f.c.AddScaled(-tau, b)
	if threeSweep {
		f.a.AddRankOne(-rho, b, b).Scale(sigma).Symmetrize()
		return CutApplied
	}
	coef := -rho
	for i, bi := range b {
		row := f.a.Row(i)
		for j, bj := range b {
			row[j] = sigma * (row[j] + float64(coef*(bi*bj)))
		}
	}
	return CutApplied
}

func (f *fullKnowledge) clone() *fullKnowledge {
	return &fullKnowledge{a: f.a.Clone(), c: f.c.Clone()}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameVectorBits(a, b linalg.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameMatrixBits(a, b *linalg.Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		if !sameVectorBits(a.Row(i), b.Row(i)) {
			return false
		}
	}
	return true
}

// TestCutMatchesReference drives E and a full-matrix copy of it through
// the same support probes, cut positions and cuts. At every step it
// requires Support's (lo, hi), Alpha, the CutResult, the center and the
// mirrored Shape to equal the full-matrix kernels' bit for bit, and the
// full matrix to stay exactly symmetric. It also applies the three-sweep
// update to a copy of the same state, so rounding differences cannot
// compound, and requires entries and center within 1e-12·max|A| of it.
// It is single-goroutine arithmetic, so it is left out of -race builds,
// where instrumenting its 60,000 O(n²) cuts takes over a minute.
func TestCutMatchesReference(t *testing.T) {
	positions := []struct {
		name string
		// alpha draws the cut position α for dimension n.
		alpha func(r *randx.RNG, n float64) float64
	}{
		{"central", func(*randx.RNG, float64) float64 { return 0 }},
		{"deep", func(r *randx.RNG, _ float64) float64 { return r.Uniform(0.05, 0.9) }},
		{"shallow", func(r *randx.RNG, n float64) float64 { return r.Uniform(-0.95/n, -0.05/n) }},
	}
	type size struct{ n, hot, cuts int }
	var sizes []size
	for _, n := range []int{2, 3, 16, 56, 128} {
		sizes = append(sizes, size{n, 0, 2000}, size{n, 13, 2000})
	}
	// The paper's largest hashed dimension (§V-C): each cut there costs a
	// few million flops per kernel, so it takes fewer.
	sizes = append(sizes, size{1024, 13, 40})
	for _, sz := range sizes {
		n, hot := sz.n, sz.hot
		for _, pos := range positions {
			probes := "dense"
			if hot > 0 {
				probes = fmt.Sprintf("hot=%d", hot)
			}
			t.Run(fmt.Sprintf("n=%d/%s/%s", n, probes, pos.name), func(t *testing.T) {
				r := randx.New(uint64(1000*n + hot))
				ball, err := NewBall(n, 4)
				if err != nil {
					t.Fatal(err)
				}
				e := ball.Clone()
				full := &fullKnowledge{a: ball.Shape(), c: ball.Center()}
				for i := 0; i < sz.cuts; i++ {
					dir := r.OnSphere(n)
					if hot > 0 {
						// Below 14 dimensions a 13-hot probe would be
						// one fixed direction; keep it sparse instead.
						dir = hotDirection(r, n, min(hot, n-1))
					}
					lo, hi := e.Support(dir)
					// Once E is narrower along dir than the center's
					// rounding, β can no longer place the cut at α:
					// start over from the ball.
					if hi-lo < 1e-8*(1+math.Abs(lo+hi)) {
						e = ball.Clone()
						full = &fullKnowledge{a: ball.Shape(), c: ball.Center()}
						lo, hi = e.Support(dir)
					}
					if flo, fhi := full.support(dir); !sameBits(lo, flo) || !sameBits(hi, fhi) {
						t.Fatalf("cut %d: Support = [%v, %v], full matrix gives [%v, %v]", i, lo, hi, flo, fhi)
					}
					beta := (lo+hi)/2 - pos.alpha(r, float64(n))*(hi-lo)/2
					alpha, err := e.Alpha(dir, beta)
					falpha, ferr := full.alpha(dir, beta)
					if err != nil || ferr != nil || !sameBits(alpha, falpha) {
						t.Fatalf("cut %d: Alpha = %v (%v), full matrix gives %v (%v)", i, alpha, err, falpha, ferr)
					}

					sweep := full.clone()
					want := sweep.cut(dir, beta, true)
					if res := full.cut(dir, beta, false); res != want {
						t.Fatalf("cut %d: full-matrix update = %v, three-sweep = %v", i, res, want)
					}
					got := e.Cut(dir, beta)
					if got != want {
						t.Fatalf("cut %d: Cut = %v, reference = %v", i, got, want)
					}
					if got != CutApplied {
						t.Fatalf("cut %d: %v, want applied", i, got)
					}
					shape := e.Shape()
					if !sameMatrixBits(shape, full.a) {
						t.Fatalf("cut %d: shape differs from the full-matrix update", i)
					}
					if !sameVectorBits(e.c, full.c) {
						t.Fatalf("cut %d: center differs from the full-matrix update", i)
					}
					if !full.a.IsSymmetric(0) {
						t.Fatalf("cut %d: full-matrix update is not exactly symmetric", i)
					}
					tol := 1e-12 * sweep.a.MaxAbs()
					if !shape.Equal(sweep.a, tol) {
						t.Fatalf("cut %d: shape differs from the three-sweep update by more than %g", i, tol)
					}
					if !e.c.Equal(sweep.c, tol) {
						t.Fatalf("cut %d: center differs from the three-sweep update by more than %g", i, tol)
					}
				}
			})
		}
	}
}
