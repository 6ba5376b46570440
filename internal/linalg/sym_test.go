package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameVectorBits(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameMatrixBits(a, b *Matrix) bool {
	return a.rows == b.rows && a.cols == b.cols && sameVectorBits(a.data, b.data)
}

// nonzeros returns the ascending indices of x's nonzero entries.
func nonzeros(x Vector) []int {
	var nz []int
	for i, xi := range x {
		if xi != 0 {
			nz = append(nz, i)
		}
	}
	return nz
}

// symProbes returns a dense random vector of length n and a sparse one
// whose only nonzero entries sit at every third index.
func symProbes(rng *rand.Rand, n int) map[string]Vector {
	dense, sparse := NewVector(n), NewVector(n)
	for i := range dense {
		dense[i] = rng.NormFloat64()
		if i%3 == 1 {
			sparse[i] = rng.NormFloat64()
		}
	}
	return map[string]Vector{"dense": dense, "sparse": sparse}
}

func TestSymDenseAndAt(t *testing.T) {
	a := randomSPD(rand.New(rand.NewSource(13)), 5)
	s := NewSym(a.Clone())
	if !sameMatrixBits(s.Dense(), a) {
		t.Fatalf("Dense =\n%v\nwant\n%v", s.Dense(), a)
	}
	if s.At(3, 1) != a.At(1, 3) || s.At(1, 3) != a.At(1, 3) {
		t.Fatalf("At(3,1), At(1,3) = %v, %v, want %v", s.At(3, 1), s.At(1, 3), a.At(1, 3))
	}
	s.Set(4, 0, 9)
	if d := s.Dense(); d.At(0, 4) != 9 || d.At(4, 0) != 9 {
		t.Fatalf("after Set(4,0,9): Dense has %v above and %v below", d.At(0, 4), d.At(4, 0))
	}
	c := s.Clone()
	c.Set(0, 0, -1)
	if s.At(0, 0) == -1 {
		t.Fatal("Clone aliased the source")
	}
}

func TestSymQuadForm(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 9
	a := randomSPD(rng, n)
	s := NewSym(a.Clone())
	for name, x := range symProbes(rng, n) {
		if got, want := s.QuadForm(x, nonzeros(x)), a.QuadForm(x); !sameBits(got, want) {
			t.Errorf("%s: QuadForm = %v, Matrix.QuadForm = %v", name, got, want)
		}
	}
}

func TestSymMulVecToMatchesMulVecT(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const n = 9
	a := randomSPD(rng, n)
	s := NewSym(a.Clone())
	for name, v := range symProbes(rng, n) {
		dst := Ones(n) // stale values must be cleared
		if got, want := s.MulVecTo(dst, v), a.MulVecT(v); !sameVectorBits(got, want) {
			t.Errorf("%s: MulVecTo = %v, MulVecT = %v", name, got, want)
		}
	}
}

func TestSymRankOneScale(t *testing.T) {
	a := MatrixFromRows([][]float64{
		{2.3, 0.1, -0.7, 0.3},
		{0.1, 1.9, 0.2, -0.4},
		{-0.7, 0.2, 3.1, 0.6},
		{0.3, -0.4, 0.6, 1.7},
	})
	b := VectorOf(0.1, -0.3, 0.7, 1.3)
	const coef, scale = -0.7, 1.1
	got := NewSym(a.Clone()).RankOneScale(coef, b, scale).Dense()
	if want := a.Clone().AddRankOne(coef, b, b).Scale(scale); !got.Equal(want, 1e-12) {
		t.Fatalf("RankOneScale mismatch:\n%v\nvs\n%v", got, want)
	}
	// Every entry, in both triangles, is scale·(aᵢⱼ + coef·(bᵢ·bⱼ))
	// exactly. Forming (coef·bᵢ)·bⱼ instead rounds some entry of the upper
	// triangle differently on this data.
	separated := false
	for i := range b {
		for j := range b {
			if want := scale * (a.At(i, j) + coef*(b[i]*b[j])); !sameBits(got.At(i, j), want) {
				t.Fatalf("entry (%d,%d) = %v, want %v", i, j, got.At(i, j), want)
			}
			if j >= i && (coef*b[i])*b[j] != coef*(b[i]*b[j]) {
				separated = true
			}
		}
	}
	if !separated {
		t.Fatal("test data no longer separates the two roundings")
	}
}

// TestSymIgnoresLowerTriangle fills the strictly-lower half of a Sym's
// storage with NaN. Every kernel must still give results bit-equal to a
// clean copy's, and the update must leave that half as it found it: no
// kernel reads or writes it.
func TestSymIgnoresLowerTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 8
	clean := NewSym(randomSPD(rng, n))
	poisoned := clean.Clone()
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			poisoned.data[i*n+j] = math.NaN()
		}
	}
	if !sameMatrixBits(poisoned.Dense(), clean.Dense()) {
		t.Fatalf("Dense read the lower half:\n%v", poisoned.Dense())
	}
	if !sameMatrixBits(poisoned.Clone().Dense(), clean.Dense()) {
		t.Fatal("Clone carried the lower half into the copy's upper half")
	}
	probes := symProbes(rng, n)
	for name, x := range probes {
		nz := nonzeros(x)
		if got, want := poisoned.QuadForm(x, nz), clean.QuadForm(x, nz); !sameBits(got, want) {
			t.Errorf("%s: QuadForm = %v, clean copy gives %v", name, got, want)
		}
		got, want := poisoned.MulVecTo(NewVector(n), x), clean.MulVecTo(NewVector(n), x)
		if !sameVectorBits(got, want) {
			t.Errorf("%s: MulVecTo = %v, clean copy gives %v", name, got, want)
		}
	}
	b := probes["dense"]
	poisoned.RankOneScale(-0.3, b, 1.2)
	clean.RankOneScale(-0.3, b, 1.2)
	if !sameMatrixBits(poisoned.Dense(), clean.Dense()) {
		t.Fatalf("RankOneScale read the lower half:\n%v", poisoned.Dense())
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if v := poisoned.data[i*n+j]; !math.IsNaN(v) {
				t.Fatalf("RankOneScale wrote %v below the diagonal at (%d,%d)", v, i, j)
			}
		}
	}
}

func TestInPlaceShapePanics(t *testing.T) {
	s := NewSym(Identity(2))
	for name, f := range map[string]func(){
		"NewSym not square":  func() { NewSym(NewMatrix(2, 3)) },
		"QuadForm bad x":     func() { s.QuadForm(NewVector(3), nil) },
		"MulVecTo bad v":     func() { s.MulVecTo(NewVector(2), NewVector(3)) },
		"MulVecTo bad dst":   func() { s.MulVecTo(NewVector(3), NewVector(2)) },
		"RankOneScale bad b": func() { s.RankOneScale(1, NewVector(3), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
