package linalg

import (
	"fmt"
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

// wideVector draws a vector whose entries mix ±0, subnormals, unit
// normals and magnitudes from about 1e-150 to 1e150.
func wideVector(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		sign := float64(1 - 2*rng.Intn(2))
		switch rng.Intn(8) {
		case 0:
			v[i] = math.Copysign(0, sign)
		case 1:
			v[i] = sign * math.Float64frombits(rng.Uint64()>>12|1) // subnormal
		case 2:
			v[i] = rng.NormFloat64() * math.Pow(10, 300*rng.Float64()-150)
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// TestSymRankOneScale requires every entry of the update, in both
// triangles, to be scale·(aᵢⱼ + coef·(bᵢ·bⱼ)) bit for bit, the value the
// Go expression gives, and the strictly-lower storage to keep its bits.
// It runs 20 successive updates at sizes that end a row on every tail
// length of the four-lane AVX kernel, for the dispatched RankOneScale (the
// kernel, on amd64 with AVX) and for the Go loop. (The NaN poison of
// TestSymIgnoresLowerTriangle cannot show a write below the diagonal that
// is computed from the NaN already there.)
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

	paths := []struct {
		name   string
		update func(s *Sym, a float64, b Vector, c float64)
	}{
		{"RankOneScale", func(s *Sym, a float64, b Vector, c float64) { s.RankOneScale(a, b, c) }},
		{"Go loop", func(s *Sym, a float64, b Vector, c float64) { rankOneScaleGo(s.data, b, a, c) }},
	}
	coefs := []struct{ coef, scale float64 }{{-0.7, 1.1}, {0.3, 0.9}, {-2.0 / 3, 4.0 / 3}, {1e-3, 1}}
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 57, 128, 129}
	// Forming (coef·bᵢ)·bⱼ, or fusing coef·(bᵢ·bⱼ) + aᵢⱼ into one FMA,
	// rounds some entry differently on this data; the check below keeps
	// the data able to tell.
	reassociated, fused := false, false
	for _, path := range paths {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(int64(29 + n)))
			s := NewSym(randomSPD(rng, n))
			for u := 0; u < 20; u++ {
				coef, scale := coefs[u%len(coefs)].coef, coefs[u%len(coefs)].scale
				b := wideVector(rng, n)
				before, stored := s.Dense(), append([]float64(nil), s.data...)
				path.update(s, coef, b, scale)
				got := s.Dense()
				for i := range b {
					for j := range b {
						if j < i && !sameBits(s.data[i*n+j], stored[i*n+j]) {
							t.Fatalf("%s, n=%d, update %d: wrote %v below the diagonal at (%d,%d)",
								path.name, n, u, s.data[i*n+j], i, j)
						}
						aij, bij := before.At(i, j), b[i]*b[j]
						want := scale * (aij + float64(coef*bij))
						if !sameBits(got.At(i, j), want) {
							t.Fatalf("%s, n=%d, update %d: entry (%d,%d) = %v, want %v",
								path.name, n, u, i, j, got.At(i, j), want)
						}
						if math.IsInf(want, 0) || math.IsNaN(want) {
							t.Fatalf("n=%d, update %d: entry (%d,%d) = %v; test data must stay finite", n, u, i, j, want)
						}
						reassociated = reassociated || (coef*b[i])*b[j] != coef*bij
						fused = fused || math.FMA(coef, bij, aij) != aij+float64(coef*bij) // the conversion forbids fusing
					}
				}
			}
		}
	}
	if !reassociated || !fused {
		t.Fatalf("test data no longer separates the roundings: reassociated %v, fused %v", reassociated, fused)
	}
}

// TestSymIgnoresLowerTriangle fills the strictly-lower half of a Sym's
// storage with NaN. Every kernel must still give results bit-equal to a
// clean copy's, and the update must leave that half as it found it: no
// kernel reads or writes it.
func TestSymIgnoresLowerTriangle(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 8, 57} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { testSymIgnoresLowerTriangle(t, n) })
	}
}

func testSymIgnoresLowerTriangle(t *testing.T, n int) {
	rng := rand.New(rand.NewSource(int64(23 + n)))
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
