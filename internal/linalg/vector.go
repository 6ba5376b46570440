// Package linalg provides the dense linear algebra kernels used throughout
// the pricing library: vectors, row-major matrices, symmetric matrices
// kept by their upper triangle, Householder QR least squares, Jacobi
// eigendecomposition of symmetric matrices, and Cholesky factorization.
// It is deliberately small, allocation-conscious, and
// stdlib-only; the ellipsoid pricing mechanism needs nothing more than
// matrix-vector products, rank-one updates, and occasional factorizations.
//
// Every product that feeds an add or subtract is written float64(x*y).
// The Go spec lets a compiler fuse x*y + z into one multiply-add that
// skips the product's rounding, and arm64's compiler does; the explicit
// conversion forbids it, so every GOARCH rounds as amd64 does. `make
// fma-check` fails if the arm64 build fuses anything here.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimension is returned (or wrapped) when operand shapes do not conform.
var ErrDimension = errors.New("linalg: dimension mismatch")

// Vector is a dense column vector backed by a []float64.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// VectorOf copies the given values into a new Vector.
func VectorOf(vals ...float64) Vector {
	v := make(Vector, len(vals))
	copy(v, vals)
	return v
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Len returns the number of entries.
func (v Vector) Len() int { return len(v) }

// Dot returns the inner product vᵀw.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += float64(x * w[i])
	}
	return s
}

// Norm2 returns the Euclidean norm ‖v‖₂, computed with scaling to avoid
// overflow for large entries.
func (v Vector) Norm2() float64 {
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		a := math.Abs(x)
		if scale < a {
			r := scale / a
			ssq = 1 + float64(ssq*r*r)
			scale = a
		} else {
			r := a / scale
			ssq += float64(r * r)
		}
	}
	return scale * math.Sqrt(ssq)
}

// Norm1 returns the ℓ₁ norm Σ|vᵢ|.
func (v Vector) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// NormInf returns the ℓ∞ norm maxᵢ|vᵢ|.
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sum returns Σvᵢ.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Scale multiplies every entry by a in place and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// Scaled returns a·v as a new vector.
func (v Vector) Scaled(a float64) Vector {
	w := make(Vector, len(v))
	for i, x := range v {
		w[i] = a * x
	}
	return w
}

// AddScaled performs v += a·w in place and returns v.
func (v Vector) AddScaled(a float64, w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += float64(a * w[i])
	}
	return v
}

// Add returns v + w as a new vector.
func (v Vector) Add(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Add length mismatch %d vs %d", len(v), len(w)))
	}
	u := make(Vector, len(v))
	for i := range v {
		u[i] = v[i] + w[i]
	}
	return u
}

// Sub returns v − w as a new vector.
func (v Vector) Sub(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Sub length mismatch %d vs %d", len(v), len(w)))
	}
	u := make(Vector, len(v))
	for i := range v {
		u[i] = v[i] - w[i]
	}
	return u
}

// Normalize rescales v in place to unit Euclidean norm and returns the
// original norm. A zero vector is left untouched and 0 is returned.
func (v Vector) Normalize() float64 {
	n := v.Norm2()
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return n
}

// Max returns the largest entry, or -Inf for an empty vector.
func (v Vector) Max() float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the smallest entry, or +Inf for an empty vector.
func (v Vector) Min() float64 {
	m := math.Inf(1)
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}

// Equal reports whether v and w have the same length and agree entrywise
// within absolute tolerance tol.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every entry is finite (no NaN or ±Inf).
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Apply maps f over the entries of v into a new vector.
func (v Vector) Apply(f func(float64) float64) Vector {
	w := make(Vector, len(v))
	for i, x := range v {
		w[i] = f(x)
	}
	return w
}

// Outer returns the rank-one matrix v wᵀ.
func Outer(v, w Vector) *Matrix {
	m := NewMatrix(len(v), len(w))
	for i, x := range v {
		row := m.Row(i)
		for j, y := range w {
			row[j] = x * y
		}
	}
	return m
}

// Ones returns the all-ones vector of length n.
func Ones(n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Basis returns the i-th standard basis vector in dimension n.
func Basis(n, i int) Vector {
	v := make(Vector, n)
	v[i] = 1
	return v
}
