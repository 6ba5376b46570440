package linalg

import (
	"fmt"
	"math"
)

// QRFactor holds a Householder QR factorization of an m×n matrix with
// m ≥ n: a = Q·R where Q is m×m orthogonal (stored implicitly as
// Householder reflectors) and R is n×n upper triangular.
type QRFactor struct {
	qr    *Matrix // packed reflectors below diagonal, R on/above diagonal
	rdiag Vector  // diagonal of R
}

// QR computes the Householder QR factorization of a (m ≥ n required),
// leaving a unchanged.
func QR(a *Matrix) (*QRFactor, error) { return qrInPlace(a.Clone()) }

// qrInPlace is QR overwriting a with the packed factor, which the
// returned QRFactor keeps.
//
// Each reflector v (column k of the packed factor, rows k…m−1) is applied
// to columns k+1…n−1 as w = Aᵀv followed by the rank-one update
// A += v·(−w/vₖ)ᵀ, the LAPACK xLARF scheme, in two sweeps over rows
// k…m−1 that read and write the row-major storage contiguously. Each wⱼ
// sums vᵢ·aᵢⱼ over ascending i, and column j's sum reads only columns k
// and j, which no other column's update writes, so the result equals
// that of applying the reflector one column at a time bit for bit.
func qrInPlace(qr *Matrix) (*QRFactor, error) {
	m, n := qr.Rows(), qr.Cols()
	if m < n {
		return nil, fmt.Errorf("%w: QR requires rows >= cols, got %dx%d", ErrDimension, m, n)
	}
	rdiag := make(Vector, n)
	w := make(Vector, n)
	for k := 0; k < n; k++ {
		// Norm of column k below row k.
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm == 0 {
			rdiag[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/nrm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		// Apply the reflector to the remaining columns: wⱼ = Σᵢ vᵢ·aᵢⱼ,
		// then aᵢⱼ += (−wⱼ/vₖ)·vᵢ, each sweep one row at a time.
		wk := w[k+1:]
		clear(wk)
		for i := k; i < m; i++ {
			row := qr.data[i*n : (i+1)*n]
			vi, rest := row[k], row[k+1:]
			wk := wk[:len(rest)] // lets the compiler drop wk[j]'s bounds check
			for j, x := range rest {
				wk[j] += float64(vi * x)
			}
		}
		vk := qr.data[k*n+k]
		for j := range wk {
			wk[j] = -wk[j] / vk
		}
		for i := k; i < m; i++ {
			row := qr.data[i*n : (i+1)*n]
			vi, rest := row[k], row[k+1:]
			wk := wk[:len(rest)]
			for j := range rest {
				rest[j] += float64(wk[j] * vi)
			}
		}
		rdiag[k] = -nrm
	}
	return &QRFactor{qr: qr, rdiag: rdiag}, nil
}

// IsFullRank reports whether R has no (numerically) zero pivot.
func (f *QRFactor) IsFullRank() bool {
	for _, d := range f.rdiag {
		if math.Abs(d) < 1e-12 {
			return false
		}
	}
	return true
}

// Solve returns the least-squares solution x minimizing ‖a·x − b‖₂.
// It returns an error if a is rank deficient.
func (f *QRFactor) Solve(b Vector) (Vector, error) {
	m, n := f.qr.Rows(), f.qr.Cols()
	if len(b) != m {
		return nil, fmt.Errorf("%w: QR Solve rhs length %d, want %d", ErrDimension, len(b), m)
	}
	if !f.IsFullRank() {
		return nil, fmt.Errorf("linalg: QR Solve on rank-deficient matrix")
	}
	y := b.Clone()
	// Apply Qᵀ to y.
	for k := 0; k < n; k++ {
		if f.qr.At(k, k) == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += float64(f.qr.At(i, k) * y[i])
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += float64(s * f.qr.At(i, k))
		}
	}
	// Back substitution with R.
	x := make(Vector, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= float64(f.qr.At(i, j) * x[j])
		}
		x[i] = s / f.rdiag[i]
	}
	return x, nil
}

// LeastSquares solves min ‖a·x − b‖₂ in one call. It takes ownership of
// a: the factorization overwrites it, so a caller that still needs a
// passes a.Clone().
func LeastSquares(a *Matrix, b Vector) (Vector, error) {
	f, err := qrInPlace(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
