package linalg

import "fmt"

// Sym is a symmetric n×n matrix stored by its upper triangle, the BLAS
// DSYR convention with UPLO = 'U': it keeps full row-major n×n storage,
// but reads and writes only the entries with j ≥ i, so a symmetric update
// touches n(n+1)/2 entries instead of n². Each kernel forms every value
// with the expression and summation order of the full-matrix computation
// named on it, so on an exactly symmetric matrix the two agree bit for
// bit. On amd64 with AVX, RankOneScale runs an assembly kernel whose
// results are bit-identical to its Go loop's.
type Sym struct {
	n    int
	data []float64 // row-major n×n; the strictly-lower half is unused
}

// NewSym returns the symmetric matrix whose upper triangle is that of the
// square matrix m. It takes m's storage rather than copying it, so m must
// not be used afterwards.
func NewSym(m *Matrix) *Sym {
	if m.rows != m.cols {
		panic(fmt.Sprintf("linalg: NewSym on non-square %dx%d matrix", m.rows, m.cols))
	}
	return &Sym{n: m.rows, data: m.data}
}

// At returns s[i,j] = s[j,i].
func (s *Sym) At(i, j int) float64 {
	if j < i {
		i, j = j, i
	}
	return s.data[i*s.n+j]
}

// Set assigns s[i,j] = s[j,i] = v.
func (s *Sym) Set(i, j int, v float64) {
	if j < i {
		i, j = j, i
	}
	s.data[i*s.n+j] = v
}

// Clone returns a deep copy.
func (s *Sym) Clone() *Sym {
	c := &Sym{n: s.n, data: make([]float64, len(s.data))}
	for i := 0; i < s.n; i++ {
		copy(c.data[i*s.n+i:(i+1)*s.n], s.data[i*s.n+i:(i+1)*s.n])
	}
	return c
}

// Dense returns s as a new full matrix, its lower triangle mirrored from
// the upper one.
func (s *Sym) Dense() *Matrix {
	n := s.n
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := s.data[i*n+j]
			m.data[i*n+j] = v
			m.data[j*n+i] = v
		}
	}
	return m
}

// QuadForm returns xᵀ s x, where nz lists the indices of x's nonzero
// entries in ascending order. The cost is O(k²) for k = len(nz). Each row
// sum runs over ascending j and the rows accumulate in ascending i, the
// order of Matrix.QuadForm.
func (s *Sym) QuadForm(x Vector, nz []int) float64 {
	if len(x) != s.n {
		panic(fmt.Sprintf("linalg: QuadForm length %d, want %d", len(x), s.n))
	}
	n := s.n
	var sum float64
	for p, i := range nz {
		var ri float64
		for _, j := range nz[:p] { // j < i: s[j,i] sits in column i
			ri += float64(s.data[j*n+i] * x[j])
		}
		row := s.data[i*n : (i+1)*n]
		for _, j := range nz[p:] {
			ri += float64(row[j] * x[j])
		}
		sum += float64(x[i] * ri)
	}
	return sum
}

// MulVecTo computes s·v into dst (which must have length n) and returns
// dst, without allocating. Zero entries of v skip their row and column,
// so the cost is O(k·n) for a k-sparse v. Each dst[j] accumulates
// s[i,j]·vᵢ over ascending i, the order of Matrix.MulVecT.
func (s *Sym) MulVecTo(dst, v Vector) Vector {
	n := s.n
	if len(v) != n || len(dst) != n {
		panic(fmt.Sprintf("linalg: MulVecTo lengths dst %d, v %d, want %d", len(dst), len(v), n))
	}
	clear(dst)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		for j := 0; j < i; j++ { // s[i,j] for j < i sits in column i
			dst[j] += float64(s.data[j*n+i] * vi)
		}
		row := s.data[i*n+i : (i+1)*n]
		d := dst[i:][:len(row)]
		for j, x := range row {
			d[j] += float64(x * vi)
		}
	}
	return dst
}

// RankOneScale overwrites s with c·(s + a·b bᵀ) in one row-major pass
// over the upper triangle, without allocating. Each entry is formed as
// c·(sᵢⱼ + a·(bᵢ·bⱼ)), as a pass over all n² entries would form it. On
// amd64 with AVX the pass runs in an assembly kernel, four entries at a
// time, that rounds every entry as rankOneScaleGo does.
func (s *Sym) RankOneScale(a float64, b Vector, c float64) *Sym {
	if len(b) != s.n { // also guards the assembly kernel, which checks no bounds
		panic(fmt.Sprintf("linalg: RankOneScale length %d, want %d", len(b), s.n))
	}
	rankOneScale(s.data, b, a, c)
	return s
}

// rankOneScaleGo is RankOneScale's pass in Go: the portable path, and the
// reference the assembly kernel must match. data is the row-major n×n
// storage of a Sym with n = len(b).
func rankOneScaleGo(data []float64, b Vector, a, c float64) {
	n := len(b)
	for i, bi := range b {
		bt := b[i:]
		row := data[i*n+i : (i+1)*n][:len(bt)] // lets the compiler drop row[j]'s bounds check
		for j, bj := range bt {
			row[j] = c * (row[j] + float64(a*(bi*bj)))
		}
	}
}
