package linalg

import (
	"fmt"
	"math"
)

// CholeskyFactor is the lower-triangular factor L with a = L·Lᵀ.
type CholeskyFactor struct {
	L *Matrix
}

// Cholesky factorizes a symmetric positive definite matrix a into L·Lᵀ.
// It returns an error if a is not (numerically) positive definite.
func Cholesky(a *Matrix) (*CholeskyFactor, error) {
	n := a.Rows()
	if n != a.Cols() {
		return nil, fmt.Errorf("%w: Cholesky needs square matrix, got %dx%d", ErrDimension, a.Rows(), a.Cols())
	}
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		var d float64 = a.At(j, j)
		lrowj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= float64(lrowj[k] * lrowj[k])
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("linalg: matrix not positive definite at pivot %d (d=%g)", j, d)
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		inv := 1 / ljj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lrowi := l.Row(i)
			for k := 0; k < j; k++ {
				s -= float64(lrowi[k] * lrowj[k])
			}
			l.Set(i, j, s*inv)
		}
	}
	return &CholeskyFactor{L: l}, nil
}

// SolveVec solves a·x = b given a = L·Lᵀ, via forward and back substitution.
func (c *CholeskyFactor) SolveVec(b Vector) Vector {
	n := c.L.Rows()
	if len(b) != n {
		panic("linalg: Cholesky SolveVec length mismatch")
	}
	// Forward: L y = b.
	y := make(Vector, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := c.L.Row(i)
		for k := 0; k < i; k++ {
			s -= float64(row[k] * y[k])
		}
		y[i] = s / row[i]
	}
	// Backward: Lᵀ x = y.
	x := make(Vector, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= float64(c.L.At(k, i) * x[k])
		}
		x[i] = s / c.L.At(i, i)
	}
	return x
}

// MulVec returns L·v, mapping the unit ball into the ellipsoid with shape
// L·Lᵀ; it is the sampling primitive of the ellipsoid's Sample.
func (c *CholeskyFactor) MulVec(v Vector) Vector {
	n := c.L.Rows()
	if len(v) != n {
		panic("linalg: Cholesky MulVec length mismatch")
	}
	out := make(Vector, n)
	for i := 0; i < n; i++ {
		row := c.L.Row(i)
		var s float64
		for k := 0; k <= i; k++ {
			s += float64(row[k] * v[k])
		}
		out[i] = s
	}
	return out
}

// LogDet returns log det(a) = 2·Σ log L[i,i].
func (c *CholeskyFactor) LogDet() float64 {
	var s float64
	n := c.L.Rows()
	for i := 0; i < n; i++ {
		s += math.Log(c.L.At(i, i))
	}
	return 2 * s
}

// Det returns det(a). Prefer LogDet in high dimension.
func (c *CholeskyFactor) Det() float64 { return math.Exp(c.LogDet()) }

// InverseSPD inverts a symmetric positive definite matrix via Cholesky.
func InverseSPD(a *Matrix) (*Matrix, error) {
	f, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows()
	inv := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		x := f.SolveVec(Basis(n, j))
		for i := 0; i < n; i++ {
			inv.Set(i, j, x[i])
		}
	}
	inv.Symmetrize()
	return inv, nil
}

// SolveSPD solves a·x = b for a symmetric positive definite a.
func SolveSPD(a *Matrix, b Vector) (Vector, error) {
	f, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b), nil
}
