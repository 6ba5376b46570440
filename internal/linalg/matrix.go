package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// MatrixFromRows builds a matrix from row slices, which must all share a
// length. The data is copied.
func MatrixFromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.Row(i), row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// ScaledIdentity returns a·I in dimension n.
func ScaledIdentity(n int, a float64) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, a)
	}
	return m
}

// Diagonal returns a square matrix with d on the main diagonal.
func Diagonal(d Vector) *Matrix {
	m := NewMatrix(len(d), len(d))
	for i, x := range d {
		m.Set(i, i, x)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a mutable view of row i (no copy).
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Data returns a mutable view of the row-major storage (no copy).
func (m *Matrix) Data() []float64 { return m.data }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) Vector {
	v := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		v[i] = m.At(i, j)
	}
	return v
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, x := range row {
			t.Set(j, i, x)
		}
	}
	return t
}

// MulVec returns m·v.
func (m *Matrix) MulVec(v Vector) Vector {
	if m.cols != len(v) {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d by %d", m.rows, m.cols, len(v)))
	}
	out := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var s float64
		for j, x := range row {
			s += float64(x * v[j])
		}
		out[i] = s
	}
	return out
}

// MulVecT returns mᵀ·v without forming the transpose.
func (m *Matrix) MulVecT(v Vector) Vector {
	if m.rows != len(v) {
		panic(fmt.Sprintf("linalg: MulVecT shape mismatch %dx%d by %d", m.rows, m.cols, len(v)))
	}
	out := make(Vector, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		vi := v[i]
		if vi == 0 {
			continue
		}
		for j, x := range row {
			out[j] += float64(x * vi)
		}
	}
	return out
}

// Mul returns m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d by %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		arow := m.Row(i)
		orow := out.Row(i)
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bkj := range brow {
				orow[j] += float64(aik * bkj)
			}
		}
	}
	return out
}

// AddScaled performs m += a·b in place, shapes must match.
func (m *Matrix) AddScaled(a float64, b *Matrix) *Matrix {
	if m.rows != b.rows || m.cols != b.cols {
		panic("linalg: AddScaled shape mismatch")
	}
	for i := range m.data {
		m.data[i] += float64(a * b.data[i])
	}
	return m
}

// Scale multiplies every entry by a in place and returns m.
func (m *Matrix) Scale(a float64) *Matrix {
	for i := range m.data {
		m.data[i] *= a
	}
	return m
}

// AddRankOne performs m += a·v wᵀ in place (rank-one update).
func (m *Matrix) AddRankOne(a float64, v, w Vector) *Matrix {
	if m.rows != len(v) || m.cols != len(w) {
		panic("linalg: AddRankOne shape mismatch")
	}
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		row := m.Row(i)
		avi := a * vi
		for j, wj := range w {
			row[j] += float64(avi * wj)
		}
	}
	return m
}

// Symmetrize overwrites m with (m + mᵀ)/2. m must be square. It returns m.
func (m *Matrix) Symmetrize() *Matrix {
	if m.rows != m.cols {
		panic("linalg: Symmetrize on non-square matrix")
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			a := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, a)
			m.Set(j, i, a)
		}
	}
	return m
}

// IsSymmetric reports whether |m[i,j]−m[j,i]| ≤ tol for all i,j.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// IsFinite reports whether every entry is finite.
func (m *Matrix) IsFinite() bool {
	for _, x := range m.data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Trace returns the sum of diagonal entries of a square matrix.
func (m *Matrix) Trace() float64 {
	if m.rows != m.cols {
		panic("linalg: Trace on non-square matrix")
	}
	var s float64
	for i := 0; i < m.rows; i++ {
		s += m.At(i, i)
	}
	return s
}

// QuadForm returns xᵀ m x for a square m. Zero entries of x are skipped,
// but each of the k nonzero rows still scans all n columns, so the cost
// is O(k·n) for a k-sparse x; Sym.QuadForm is the O(k²) form.
func (m *Matrix) QuadForm(x Vector) float64 {
	if m.rows != m.cols || m.rows != len(x) {
		panic("linalg: QuadForm shape mismatch")
	}
	var s float64
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		var ri float64
		for j, xj := range x {
			if xj == 0 {
				continue
			}
			ri += float64(row[j] * xj)
		}
		s += float64(xi * ri)
	}
	return s
}

// MaxAbs returns the largest absolute entry.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, x := range m.data {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	return mx
}

// Equal reports entrywise agreement within absolute tolerance tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, x := range m.data {
		if math.Abs(x-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		sb.WriteString("[")
		for j, x := range row {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%.6g", x)
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}
