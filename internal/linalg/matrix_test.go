package linalg

import (
	"math"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 7)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(1, 2) != 7 || m.At(0, 1) != 0 {
		t.Fatalf("At wrong: %v %v", m.At(1, 2), m.At(0, 1))
	}
	if c := m.Col(2); !c.Equal(VectorOf(0, 7), 0) {
		t.Fatalf("Col = %v", c)
	}
}

func TestIdentityDiagonal(t *testing.T) {
	i3 := Identity(3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := 0.0
			if r == c {
				want = 1
			}
			if i3.At(r, c) != want {
				t.Fatalf("Identity[%d,%d] = %v", r, c, i3.At(r, c))
			}
		}
	}
	d := Diagonal(VectorOf(2, 5))
	if d.At(0, 0) != 2 || d.At(1, 1) != 5 || d.At(0, 1) != 0 {
		t.Fatal("Diagonal wrong")
	}
	s := ScaledIdentity(2, 9)
	if s.At(0, 0) != 9 || s.At(1, 0) != 0 {
		t.Fatal("ScaledIdentity wrong")
	}
}

func TestMulVec(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	v := VectorOf(1, -1)
	if got := m.MulVec(v); !got.Equal(VectorOf(-1, -1, -1), 1e-15) {
		t.Fatalf("MulVec = %v", got)
	}
	w := VectorOf(1, 1, 1)
	if got := m.MulVecT(w); !got.Equal(VectorOf(9, 12), 1e-15) {
		t.Fatalf("MulVecT = %v", got)
	}
	// MulVecT must match T().MulVec.
	if got, want := m.MulVecT(w), m.T().MulVec(w); !got.Equal(want, 1e-12) {
		t.Fatalf("MulVecT disagreement: %v vs %v", got, want)
	}
}

func TestMatrixMul(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := MatrixFromRows([][]float64{{0, 1}, {1, 0}})
	got := a.Mul(b)
	want := MatrixFromRows([][]float64{{2, 1}, {4, 3}})
	if !got.Equal(want, 0) {
		t.Fatalf("Mul = \n%v", got)
	}
	// Identity is neutral.
	if !a.Mul(Identity(2)).Equal(a, 0) || !Identity(2).Mul(a).Equal(a, 0) {
		t.Fatal("identity not neutral under Mul")
	}
}

func TestTranspose(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("T shape = %dx%d", at.Rows(), at.Cols())
	}
	if !at.T().Equal(a, 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestAddRankOneMatchesOuter(t *testing.T) {
	a := Identity(3)
	v := VectorOf(1, 2, 3)
	w := VectorOf(-1, 0, 2)
	got := a.Clone().AddRankOne(2.5, v, w)
	want := a.Clone().AddScaled(2.5, Outer(v, w))
	if !got.Equal(want, 1e-12) {
		t.Fatalf("AddRankOne mismatch:\n%v\nvs\n%v", got, want)
	}
}

func TestSymmetrize(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {4, 3}})
	a.Symmetrize()
	if !a.IsSymmetric(0) {
		t.Fatal("Symmetrize did not symmetrize")
	}
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Fatalf("off-diagonal = %v", a.At(0, 1))
	}
}

func TestQuadForm(t *testing.T) {
	a := MatrixFromRows([][]float64{{2, 1}, {1, 3}})
	x := VectorOf(1, -1)
	// xᵀAx = 2 - 1 - 1 + 3 = 3.
	if got := a.QuadForm(x); !almostEq(got, 3, 1e-12) {
		t.Fatalf("QuadForm = %v, want 3", got)
	}
	// Must agree with explicit computation.
	if got, want := a.QuadForm(x), x.Dot(a.MulVec(x)); !almostEq(got, want, 1e-12) {
		t.Fatalf("QuadForm disagreement: %v vs %v", got, want)
	}
}

func TestTraceAndMaxAbs(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, -9}, {2, 5}})
	if a.Trace() != 6 {
		t.Fatalf("Trace = %v", a.Trace())
	}
	if a.MaxAbs() != 9 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
}

func TestMatrixIsFinite(t *testing.T) {
	a := Identity(2)
	if !a.IsFinite() {
		t.Error("identity reported non-finite")
	}
	a.Set(0, 1, math.NaN())
	if a.IsFinite() {
		t.Error("NaN matrix reported finite")
	}
}

func TestMatrixClone(t *testing.T) {
	a := Identity(2)
	b := a.Clone()
	b.Set(0, 0, 42)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone aliased the source")
	}
}

func TestRaggedRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	MatrixFromRows([][]float64{{1, 2}, {3}})
}
