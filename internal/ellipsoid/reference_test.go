//go:build !race

package ellipsoid

import (
	"fmt"
	"math"
	"testing"

	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

// referenceCut is the Löwner-John update in its three-sweep form: a
// rank-one update, a scale, then a Symmetrize that averages away the
// asymmetry forming (−ρ·bᵢ)·bⱼ row by row leaves. Cut must agree with it
// to within rounding.
func referenceCut(e *E, a linalg.Vector, beta float64) CutResult {
	b := e.a.MulVecTTo(linalg.NewVector(e.n), a)
	probe := math.Sqrt(math.Max(0, a.Dot(b)))
	if probe < minProbe {
		return CutDegenerate
	}
	alpha := (e.c.Dot(a) - beta) / probe
	n := float64(e.n)
	if alpha >= 1 {
		return CutInfeasible
	}
	if e.n == 1 {
		return e.cut1D(a[0], beta, alpha)
	}
	if alpha <= -1/n {
		return CutTooShallow
	}
	b.Scale(1 / probe)
	tau := (1 + n*alpha) / (n + 1)
	sigma := n * n * (1 - alpha*alpha) / (n*n - 1)
	rho := 2 * (1 + n*alpha) / ((n + 1) * (1 + alpha))
	e.c.AddScaled(-tau, b)
	e.a.AddRankOne(-rho, b, b)
	e.a.Scale(sigma)
	e.a.Symmetrize()
	return CutApplied
}

// TestCutMatchesReference applies Cut and the three-sweep reference to a
// copy of the same state at every step, so rounding differences cannot
// compound, and requires the same outcome, entries and center within
// 1e-12·max|A| of the reference, and an exactly symmetric shape matrix.
// It is single-goroutine arithmetic, so it is left out of -race builds,
// where instrumenting its 60,000 O(n²) cuts takes over a minute.
func TestCutMatchesReference(t *testing.T) {
	const cuts = 2000
	positions := []struct {
		name string
		// alpha draws the cut position α for dimension n.
		alpha func(r *randx.RNG, n float64) float64
	}{
		{"central", func(*randx.RNG, float64) float64 { return 0 }},
		{"deep", func(r *randx.RNG, _ float64) float64 { return r.Uniform(0.05, 0.9) }},
		{"shallow", func(r *randx.RNG, n float64) float64 { return r.Uniform(-0.95/n, -0.05/n) }},
	}
	for _, n := range []int{2, 3, 16, 56, 128} {
		for _, hot := range []int{0, 13} {
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
					e, ref := ball.Clone(), ball.Clone()
					for i := 0; i < cuts; i++ {
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
							lo, hi = e.Support(dir)
						}
						beta := (lo+hi)/2 - pos.alpha(r, float64(n))*(hi-lo)/2
						ref.a.CopyFrom(e.a)
						copy(ref.c, e.c)
						want := referenceCut(ref, dir, beta)
						got := e.Cut(dir, beta)
						if got != want {
							t.Fatalf("cut %d: Cut = %v, reference = %v", i, got, want)
						}
						if got != CutApplied {
							t.Fatalf("cut %d: %v, want applied", i, got)
						}
						tol := 1e-12 * ref.a.MaxAbs()
						if !e.a.Equal(ref.a, tol) {
							t.Fatalf("cut %d: shape differs from the reference by more than %g", i, tol)
						}
						if !e.c.Equal(ref.c, tol) {
							t.Fatalf("cut %d: center differs from the reference by more than %g", i, tol)
						}
						if !e.a.IsSymmetric(0) {
							t.Fatalf("cut %d: shape matrix is not exactly symmetric", i)
						}
					}
				})
			}
		}
	}
}
