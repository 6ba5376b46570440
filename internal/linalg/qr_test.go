package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestLeastSquaresExact(t *testing.T) {
	// Square full-rank system: exact solve.
	a := MatrixFromRows([][]float64{{2, 0}, {1, 3}})
	x, err := LeastSquares(a, VectorOf(4, 11))
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(VectorOf(2, 3), 1e-10) {
		t.Fatalf("x = %v, want [2 3]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 1 + 2x through noisy-free points: recover exactly.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(len(xs), 2)
	b := make(Vector, len(xs))
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 1 + 2*x
	}
	coef, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !coef.Equal(VectorOf(1, 2), 1e-10) {
		t.Fatalf("coef = %v", coef)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The LS residual must be orthogonal to the column space.
	rng := rand.New(rand.NewSource(21))
	m, n := 30, 5
	a := NewMatrix(m, n)
	b := make(Vector, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = rng.NormFloat64()
	}
	x, err := LeastSquares(a.Clone(), b)
	if err != nil {
		t.Fatal(err)
	}
	r := b.Sub(a.MulVec(x))
	g := a.MulVecT(r) // Aᵀr should vanish
	if g.NormInf() > 1e-9*math.Max(1, b.NormInf()) {
		t.Fatalf("normal equations violated: Aᵀr = %v", g)
	}
}

func TestQRRankDeficient(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {2, 4}, {3, 6}}) // rank 1
	f, err := QR(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.IsFullRank() {
		t.Fatal("rank-1 matrix reported full rank")
	}
	if _, err := f.Solve(VectorOf(1, 2, 3)); err == nil {
		t.Fatal("expected Solve error on rank-deficient matrix")
	}
}

func TestQRShapeErrors(t *testing.T) {
	if _, err := QR(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for wide matrix")
	}
	f, err := QR(Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve(VectorOf(1, 2, 3)); err == nil {
		t.Fatal("expected rhs length error")
	}
}

// referenceQR is QR with each reflector applied one column at a time: a
// dot product down column j, then an update of column j, each walking the
// row-major storage at a stride of n. QR must agree with it bit for bit.
func referenceQR(a *Matrix) *QRFactor {
	m, n := a.Rows(), a.Cols()
	qr := a.Clone()
	rdiag := make(Vector, n)
	for k := 0; k < n; k++ {
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
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += float64(qr.At(i, k) * qr.At(i, j))
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+float64(s*qr.At(i, k)))
			}
		}
		rdiag[k] = -nrm
	}
	return &QRFactor{qr: qr, rdiag: rdiag}
}

func normalMatrix(rng *rand.Rand, m, n int) *Matrix {
	a := NewMatrix(m, n)
	for i := range a.data {
		a.data[i] = rng.NormFloat64()
	}
	return a
}

// setColumn overwrites column j of a with column src, or with zeros when
// src < 0.
func setColumn(a *Matrix, j, src int) *Matrix {
	for i := 0; i < a.rows; i++ {
		v := 0.0
		if src >= 0 {
			v = a.At(i, src)
		}
		a.Set(i, j, v)
	}
	return a
}

// ridgeLayout returns FitLinear's design for m normal rows of d features
// with an intercept column and ridge penalty lambda: the rows, each
// ending in 1, then d rows holding √λ on the diagonal.
func ridgeLayout(rng *rand.Rand, m, d int, lambda float64) *Matrix {
	a := NewMatrix(m+d, d+1)
	for i := 0; i < m; i++ {
		for j := 0; j < d; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		a.Set(i, d, 1)
	}
	for j := 0; j < d; j++ {
		a.Set(m+j, j, math.Sqrt(lambda))
	}
	return a
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return false
		}
	}
	return true
}

// TestQRMatchesReference requires QR's packed reflectors, rdiag,
// IsFullRank and Solve's result (or its refusal) to equal referenceQR's
// bit for bit, on square, one-row-taller and tall shapes, FitLinear's
// ridge-augmented layout, matrices with a zero column, a negative
// leading entry or a duplicate column, and matrices whose entries mix
// ±0, subnormals and magnitudes from 1e-150 to 1e150 (wideVector).
func TestQRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type qrCase struct {
		name string
		a    *Matrix
	}
	var cases []qrCase
	add := func(name string, a *Matrix) {
		cases = append(cases, qrCase{fmt.Sprintf("%s %dx%d", name, a.rows, a.cols), a})
	}
	for _, n := range []int{1, 2, 5, 16} {
		add("square", normalMatrix(rng, n, n))
	}
	for _, n := range []int{1, 3, 8, 21} {
		add("one row taller", normalMatrix(rng, n+1, n))
	}
	for _, s := range [][2]int{{10, 3}, {50, 7}, {37, 13}, {300, 57}} {
		add("tall", normalMatrix(rng, s[0], s[1]))
	}
	add("ridge layout", ridgeLayout(rng, 200, 12, 1e-8))
	add("ridge layout", ridgeLayout(rng, 9, 12, 1e-8)) // fewer rows than features
	add("zero column", setColumn(normalMatrix(rng, 20, 6), 2, -1))
	upper := normalMatrix(rng, 8, 5) // column 3 zero on and below the diagonal
	for i := 3; i < 8; i++ {
		upper.Set(i, 3, 0)
	}
	add("zero below diagonal", upper)
	neg := normalMatrix(rng, 12, 4)
	neg.Set(0, 0, -3)
	neg.Set(1, 1, -math.Abs(neg.At(1, 1))-10)
	add("negative leading entry", neg)
	add("duplicate column", setColumn(normalMatrix(rng, 30, 7), 4, 1))
	add("duplicate column", setColumn(MatrixFromRows([][]float64{{1, 2}, {2, 4}, {3, 6}}), 1, 0))
	for u := 0; u < 60; u++ {
		n := 1 + rng.Intn(40)
		m := n + rng.Intn(41-n)
		a := &Matrix{rows: m, cols: n, data: wideVector(rng, m*n)}
		switch u % 4 {
		case 1:
			setColumn(a, rng.Intn(n), -1)
		case 2:
			setColumn(a, rng.Intn(n), rng.Intn(n))
		}
		add("wide entries", a)
	}

	fullRank := 0
	for _, c := range cases {
		m := c.a.rows
		b := wideVector(rng, m)
		in := c.a.Clone()
		got, err := QR(c.a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !sameMatrixBits(c.a, in) {
			t.Fatalf("%s: QR modified its input", c.name)
		}
		want := referenceQR(c.a)
		if !allFinite(want.qr.data) || !allFinite(want.rdiag) {
			t.Fatalf("%s: reference factor not finite; test data must stay finite", c.name)
		}
		for i := range want.qr.data {
			if !sameBits(got.qr.data[i], want.qr.data[i]) {
				t.Fatalf("%s: packed entry (%d,%d) = %v, want %v",
					c.name, i/c.a.cols, i%c.a.cols, got.qr.data[i], want.qr.data[i])
			}
		}
		if !sameVectorBits(got.rdiag, want.rdiag) {
			t.Fatalf("%s: rdiag = %v, want %v", c.name, got.rdiag, want.rdiag)
		}
		if got.IsFullRank() != want.IsFullRank() {
			t.Fatalf("%s: IsFullRank = %v, want %v", c.name, got.IsFullRank(), want.IsFullRank())
		}
		gx, gerr := got.Solve(b)
		wx, werr := want.Solve(b)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: Solve error %v, want %v", c.name, gerr, werr)
		}
		if werr != nil {
			continue
		}
		fullRank++
		if !allFinite(wx) {
			t.Fatalf("%s: reference solution %v not finite; test data must stay finite", c.name, wx)
		}
		if !sameVectorBits(gx, wx) {
			t.Fatalf("%s: Solve = %v, want %v", c.name, gx, wx)
		}
	}
	if fullRank < len(cases)/2 {
		t.Fatalf("only %d of %d cases reached Solve; the data must keep most full rank", fullRank, len(cases))
	}
}
