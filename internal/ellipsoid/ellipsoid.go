// Package ellipsoid implements the geometric machinery behind the paper's
// pricing mechanism: the ellipsoid knowledge set E = {θ : (θ−c)ᵀA⁻¹(θ−c) ≤ 1}
// and its Löwner-John updates after central, deep, and shallow cuts.
//
// The pricing algorithms only ever touch the ellipsoid through three
// operations:
//
//   - Support(x): the interval [min_{θ∈E} xᵀθ, max_{θ∈E} xᵀθ] bounding a
//     query's market value (lines 5–7 of Algorithm 1), O(n + k²) for an x
//     with k nonzero entries;
//   - Cut(a, β, α): replace E ∩ {θ : aᵀθ ≤ β} by its minimum-volume
//     enclosing ellipsoid (lines 15–21), O(k·n + n²/2) for a k-hot a;
//   - size probes (volume, widths) used by the regret analysis and tests.
//
// The shape matrix is stored by its upper triangle (linalg.Sym), which is
// all the first two operations read or write. As in linalg, each product
// that feeds an add or subtract is written float64(x*y), so no compiler
// fuses it and every GOARCH updates the knowledge set alike.
package ellipsoid

import (
	"errors"
	"fmt"
	"math"

	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

// minProbe floors √(xᵀAx) to keep the cut geometry well-defined when the
// ellipsoid has collapsed along the probe direction.
const minProbe = 1e-150

// ErrDegenerate is reported when the ellipsoid has numerically collapsed.
var ErrDegenerate = errors.New("ellipsoid: degenerate shape matrix")

// E is an n-dimensional ellipsoid {θ : (θ−c)ᵀ A⁻¹ (θ−c) ≤ 1} stored by its
// shape matrix A (symmetric positive definite) and center c. Support,
// Width, Alpha and Cut write per-ellipsoid scratch, so an E is not safe
// for concurrent use, not even by readers; each owner keeps its own.
type E struct {
	n int
	a *linalg.Sym
	c linalg.Vector

	// scratch holds the cut vector b = A·a/√(aᵀAa) during Cut, and nz the
	// nonzero indices of the last quadratic form's vector, so the
	// per-round hot path performs no allocations. Both are lazily sized
	// and never shared: Clone leaves them nil in the copy.
	scratch linalg.Vector
	nz      []int
}

// NewBall returns the ball of the given radius centered at the origin —
// the initial knowledge set E₁ of the mechanism, with A₁ = R²·I, c₁ = 0.
func NewBall(n int, radius float64) (*E, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ellipsoid: dimension must be positive, got %d", n)
	}
	// radius <= 0 alone admits NaN (ordered comparisons with NaN are
	// false), and ±Inf passes it outright; either would silently
	// poison A₁ = R²·I and every cut after it.
	if math.IsNaN(radius) || math.IsInf(radius, 0) || radius <= 0 {
		return nil, fmt.Errorf("ellipsoid: radius must be finite and positive, got %g", radius)
	}
	return &E{
		n: n,
		a: linalg.NewSym(linalg.ScaledIdentity(n, radius*radius)),
		c: linalg.NewVector(n),
	}, nil
}

// New builds an ellipsoid from an explicit shape matrix and center. The
// shape must be symmetric positive definite. New takes ownership of
// shape: the ellipsoid keeps its storage (symmetrized in place), so the
// caller must not use or modify it afterwards; pass a Clone to keep a
// copy. The center is copied.
func New(shape *linalg.Matrix, center linalg.Vector) (*E, error) {
	n := len(center)
	if shape.Rows() != n || shape.Cols() != n {
		return nil, fmt.Errorf("ellipsoid: shape %dx%d does not match center length %d",
			shape.Rows(), shape.Cols(), n)
	}
	// The symmetry and PD checks below let non-finite entries through:
	// |NaN − x| > tol is false, an infinite entry makes tol infinite, and
	// the Cholesky factorization reads only the diagonal and lower
	// triangle. Nothing downstream inspects the center either, so a NaN
	// c would survive restore and corrupt the first price.
	if !shape.IsFinite() {
		return nil, fmt.Errorf("ellipsoid: shape matrix must be finite")
	}
	if !center.IsFinite() {
		return nil, fmt.Errorf("ellipsoid: center must be finite")
	}
	if !shape.IsSymmetric(1e-8 * math.Max(1, shape.MaxAbs())) {
		return nil, fmt.Errorf("ellipsoid: shape matrix is not symmetric")
	}
	if !linalg.IsPositiveDefinite(shape) {
		return nil, fmt.Errorf("ellipsoid: shape matrix is not positive definite")
	}
	return &E{n: n, a: linalg.NewSym(shape.Symmetrize()), c: center.Clone()}, nil
}

// Dim returns the ambient dimension n.
func (e *E) Dim() int { return e.n }

// Center returns a copy of the center c.
func (e *E) Center() linalg.Vector { return e.c.Clone() }

// Shape returns a copy of the shape matrix A, both triangles filled.
func (e *E) Shape() *linalg.Matrix { return e.a.Dense() }

// Clone returns a deep copy of e.
func (e *E) Clone() *E {
	return &E{n: e.n, a: e.a.Clone(), c: e.c.Clone()}
}

// Contains reports whether θ lies in the ellipsoid, within slack tol on the
// quadratic form (tol = 0 for exact membership).
func (e *E) Contains(theta linalg.Vector, tol float64) bool {
	inv, err := linalg.InverseSPD(e.a.Dense())
	if err != nil {
		return false
	}
	d := theta.Sub(e.c)
	return inv.QuadForm(d) <= 1+tol
}

// Support returns (lo, hi) = (min, max) of xᵀθ over θ ∈ E:
// hi = xᵀc + √(xᵀAx), lo = xᵀc − √(xᵀAx). This is the market-value
// interval [p̲, p̄] of the pricing mechanism.
func (e *E) Support(x linalg.Vector) (lo, hi float64) {
	mid := e.c.Dot(x)
	half := math.Sqrt(math.Max(0, e.quadForm(x)))
	return mid - half, mid + half
}

// Width returns the width of E along direction x: p̄ − p̲ = 2√(xᵀAx).
func (e *E) Width(x linalg.Vector) float64 {
	return 2 * math.Sqrt(math.Max(0, e.quadForm(x)))
}

// quadForm returns xᵀAx. It gathers x's nonzero indices into e.nz first,
// so the cost is O(n + k²) for an x with k nonzero entries.
func (e *E) quadForm(x linalg.Vector) float64 {
	if e.nz == nil {
		e.nz = make([]int, 0, e.n)
	}
	nz := e.nz[:0]
	for i, xi := range x {
		if xi != 0 {
			nz = append(nz, i)
		}
	}
	e.nz = nz
	return e.a.QuadForm(x, nz)
}

// CutResult describes the outcome of a Cut call.
type CutResult int

const (
	// CutApplied means the ellipsoid was replaced by the Löwner-John
	// ellipsoid of its intersection with the halfspace.
	CutApplied CutResult = iota
	// CutTooShallow means α ≤ −1/n: the halfspace removes so little that
	// the minimum-volume enclosing ellipsoid is E itself; E is unchanged.
	CutTooShallow
	// CutInfeasible means α ≥ 1: the halfspace misses the ellipsoid
	// entirely; E is left unchanged and the caller should treat the
	// feedback as inconsistent (in the pricing setting this cannot occur
	// while θ* ∈ E and the uncertainty buffer holds).
	CutInfeasible
	// CutDegenerate means the probe direction has collapsed numerically;
	// E is unchanged.
	CutDegenerate
)

// String renders the CutResult for diagnostics.
func (r CutResult) String() string {
	switch r {
	case CutApplied:
		return "applied"
	case CutTooShallow:
		return "too-shallow"
	case CutInfeasible:
		return "infeasible"
	case CutDegenerate:
		return "degenerate"
	default:
		return fmt.Sprintf("CutResult(%d)", int(r))
	}
}

// Alpha returns the signed position α = (aᵀc − β)/√(aᵀAa) of the cutting
// hyperplane {θ : aᵀθ = β} in the ‖·‖_{A⁻¹} norm: α = 0 is a central cut
// through the center, α > 0 a deep cut, α < 0 a shallow cut.
func (e *E) Alpha(a linalg.Vector, beta float64) (float64, error) {
	probe := math.Sqrt(math.Max(0, e.quadForm(a)))
	if probe < minProbe {
		return 0, ErrDegenerate
	}
	return (e.c.Dot(a) - beta) / probe, nil
}

// Cut replaces E by the Löwner-John (minimum-volume enclosing) ellipsoid of
// E ∩ {θ : aᵀθ ≤ β}. For cut position α ∈ (−1/n, 1) the standard deep-cut
// update is applied:
//
//	b  = A a / √(aᵀAa)
//	c' = c − (1+nα)/(n+1) · b
//	A' = n²(1−α²)/(n²−1) · (A − 2(1+nα)/((n+1)(1+α)) · b bᵀ)
//
// which for α = 0 reduces to the textbook central-cut ellipsoid update.
// It is computed as c′ = c − τ·b and, in one row-major pass over the
// upper triangle of A, A′ᵢⱼ = σ·(Aᵢⱼ − ρ·(bᵢ·bⱼ)) for j ≥ i, with τ, σ, ρ
// the three coefficients above. Each entry gets the value the same pass
// over all n² entries would give it, since bᵢ·bⱼ rounds exactly like bⱼ·bᵢ.
// n = 1 is handled exactly (the remaining segment's enclosing "ellipsoid"
// is the segment itself).
func (e *E) Cut(a linalg.Vector, beta float64) CutResult {
	if len(a) != e.n {
		panic(fmt.Sprintf("ellipsoid: Cut direction length %d, want %d", len(a), e.n))
	}
	if e.scratch == nil {
		e.scratch = linalg.NewVector(e.n)
	}
	// b = A a, where zero entries of a skip their row and column of A;
	// aᵀAa = a·b then costs only O(n).
	b := e.a.MulVecTo(e.scratch, a)
	probeSq := a.Dot(b)
	probe := math.Sqrt(math.Max(0, probeSq))
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

	tau := (1 + float64(n*alpha)) / (n + 1)
	sigma := n * n * (1 - float64(alpha*alpha)) / (float64(n*n) - 1)
	rho := 2 * (1 + float64(n*alpha)) / ((n + 1) * (1 + alpha))

	e.c.AddScaled(-tau, b)
	e.a.RankOneScale(-rho, b, sigma)
	return CutApplied
}

// cut1D performs the exact interval update in dimension one. The ellipsoid
// is the interval [c−r, c+r] with r = √A; intersecting with a halfspace
// yields a sub-interval whose minimal enclosing "ellipsoid" is itself.
func (e *E) cut1D(a, beta, alpha float64) CutResult {
	if alpha <= -1 {
		return CutTooShallow
	}
	r := math.Sqrt(e.a.At(0, 0))
	lo, hi := e.c[0]-r, e.c[0]+r
	// Halfspace {θ : aθ ≤ β}.
	bound := beta / a
	if a > 0 {
		hi = math.Min(hi, bound)
	} else {
		lo = math.Max(lo, bound)
	}
	if hi < lo {
		return CutInfeasible
	}
	newC := (lo + hi) / 2
	newR := (hi - lo) / 2
	if newR < minProbe {
		newR = minProbe
	}
	e.c[0] = newC
	e.a.Set(0, 0, newR*newR)
	return CutApplied
}

// Volume returns the n-dimensional volume Vₙ·√det(A), with Vₙ the unit
// ball volume; prefer LogVolume in high dimension.
func (e *E) Volume() (float64, error) {
	lv, err := e.LogVolume()
	if err != nil {
		return 0, err
	}
	return math.Exp(lv), nil
}

// LogVolume returns log(Vₙ) + ½·log det(A).
func (e *E) LogVolume() (float64, error) {
	f, err := linalg.Cholesky(e.a.Dense())
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrDegenerate, err)
	}
	return logUnitBallVolume(e.n) + float64(0.5*f.LogDet()), nil
}

// logUnitBallVolume returns log Vₙ = (n/2)·log π − log Γ(n/2 + 1).
func logUnitBallVolume(n int) float64 {
	lg, _ := math.Lgamma(float64(float64(n)/2) + 1) // n/2 compiles to a product, n·0.5
	return float64(float64(n)/2*math.Log(math.Pi)) - lg
}

// UnitBallVolume returns Vₙ, exported for tests and diagnostics.
func UnitBallVolume(n int) float64 { return math.Exp(logUnitBallVolume(n)) }

// Sample returns a point uniformly distributed in E, via the affine image
// x = c + L·u of a uniform unit-ball point u, where A = L·Lᵀ.
func (e *E) Sample(r *randx.RNG) (linalg.Vector, error) {
	f, err := linalg.Cholesky(e.a.Dense())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDegenerate, err)
	}
	u := r.InBall(e.n)
	x := f.MulVec(u)
	for i := range x {
		x[i] += e.c[i]
	}
	return x, nil
}

// IsWellFormed verifies the structural invariants: finite entries and
// positive definiteness of the shape matrix. Symmetry holds by
// construction, since only the upper triangle is stored.
func (e *E) IsWellFormed() bool {
	a := e.a.Dense()
	return a.IsFinite() && e.c.IsFinite() && linalg.IsPositiveDefinite(a)
}
