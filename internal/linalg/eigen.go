package linalg

import (
	"fmt"
	"math"
	"sort"
)

// EigenSym computes the full eigendecomposition of a symmetric matrix using
// the cyclic Jacobi rotation method. It returns the eigenvalues sorted in
// descending order and the matrix whose i-th column is the eigenvector for
// the i-th eigenvalue, so that a = V·diag(vals)·Vᵀ.
//
// Jacobi is O(n³) per sweep with typically 6–10 sweeps; for the moderate
// dimensions in this library (n ≤ ~1024, and usually ≤ 128 on hot paths) it
// is robust, embarrassingly simple, and accurate to near machine precision
// for symmetric input — which is all the ellipsoid machinery requires.
func EigenSym(a *Matrix) (vals Vector, vecs *Matrix, err error) {
	n := a.Rows()
	if n != a.Cols() {
		return nil, nil, fmt.Errorf("%w: EigenSym needs square matrix, got %dx%d", ErrDimension, a.Rows(), a.Cols())
	}
	if !a.IsSymmetric(1e-9 * math.Max(1, a.MaxAbs())) {
		return nil, nil, fmt.Errorf("linalg: EigenSym input is not symmetric")
	}
	// Work on a copy; accumulate rotations into v.
	w := a.Clone()
	w.Symmetrize()
	v := Identity(n)

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= 1e-14*math.Max(1, w.MaxAbs()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				// Compute the Jacobi rotation (c, s) annihilating w[p,q].
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+float64(theta*theta)))
				} else {
					t = -1 / (-theta + math.Sqrt(1+float64(theta*theta)))
				}
				c := 1 / math.Sqrt(1+float64(t*t))
				s := t * c
				applyJacobi(w, v, p, q, c, s)
			}
		}
	}

	vals = make(Vector, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] > vals[idx[j]] })
	sortedVals := make(Vector, n)
	sortedVecs := NewMatrix(n, n)
	for k, i := range idx {
		sortedVals[k] = vals[i]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, k, v.At(r, i))
		}
	}
	return sortedVals, sortedVecs, nil
}

// applyJacobi applies the rotation G(p,q,c,s) as w ← GᵀwG and v ← vG.
func applyJacobi(w, v *Matrix, p, q int, c, s float64) {
	n := w.Rows()
	for i := 0; i < n; i++ {
		wip := w.At(i, p)
		wiq := w.At(i, q)
		w.Set(i, p, float64(c*wip)-float64(s*wiq))
		w.Set(i, q, float64(s*wip)+float64(c*wiq))
	}
	for j := 0; j < n; j++ {
		wpj := w.At(p, j)
		wqj := w.At(q, j)
		w.Set(p, j, float64(c*wpj)-float64(s*wqj))
		w.Set(q, j, float64(s*wpj)+float64(c*wqj))
	}
	for i := 0; i < n; i++ {
		vip := v.At(i, p)
		viq := v.At(i, q)
		v.Set(i, p, float64(c*vip)-float64(s*viq))
		v.Set(i, q, float64(s*vip)+float64(c*viq))
	}
}

func offDiagNorm(m *Matrix) float64 {
	var s float64
	n := m.Rows()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			x := m.At(i, j)
			s += float64(2 * x * x)
		}
	}
	return math.Sqrt(s)
}

// EigenvaluesSym returns only the eigenvalues of a symmetric matrix, in
// descending order.
func EigenvaluesSym(a *Matrix) (Vector, error) {
	vals, _, err := EigenSym(a)
	return vals, err
}

// SmallestEigenvalueSym returns λ_min of a symmetric matrix.
func SmallestEigenvalueSym(a *Matrix) (float64, error) {
	vals, err := EigenvaluesSym(a)
	if err != nil {
		return 0, err
	}
	if len(vals) == 0 {
		return 0, fmt.Errorf("linalg: empty matrix has no eigenvalues")
	}
	return vals[len(vals)-1], nil
}

// LogDetSym returns log det(a) for a symmetric positive definite matrix,
// computed from its eigenvalues to avoid overflow in high dimension.
func LogDetSym(a *Matrix) (float64, error) {
	vals, err := EigenvaluesSym(a)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, v := range vals {
		if v <= 0 {
			return 0, fmt.Errorf("linalg: LogDetSym matrix is not positive definite (eigenvalue %g)", v)
		}
		s += math.Log(v)
	}
	return s, nil
}

// IsPositiveDefinite reports whether the symmetric matrix a is positive
// definite, determined by attempting a Cholesky factorization.
func IsPositiveDefinite(a *Matrix) bool {
	_, err := Cholesky(a)
	return err == nil
}

// PowerIteration approximates the dominant eigenvalue/vector pair of a
// symmetric PSD matrix; tests use it to cross-check Jacobi. start must be
// non-zero; iters bounds the work.
func PowerIteration(a *Matrix, start Vector, iters int) (float64, Vector) {
	v := start.Clone()
	v.Normalize()
	var lambda float64
	for k := 0; k < iters; k++ {
		w := a.MulVec(v)
		nrm := w.Norm2()
		if nrm == 0 {
			return 0, v
		}
		w.Scale(1 / nrm)
		lambda = nrm
		v = w
	}
	// Rayleigh quotient for a final polish.
	av := a.MulVec(v)
	lambda = v.Dot(av)
	return lambda, v
}
