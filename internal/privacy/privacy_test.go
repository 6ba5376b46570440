package privacy

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

func TestNewLinearQueryValidation(t *testing.T) {
	if _, err := NewLinearQuery(nil, 1); err == nil {
		t.Fatal("expected error for empty weights")
	}
	if _, err := NewLinearQuery(linalg.VectorOf(math.NaN()), 1); err == nil {
		t.Fatal("expected error for NaN weight")
	}
	if _, err := NewLinearQuery(linalg.VectorOf(1), 0); err == nil {
		t.Fatal("expected error for zero variance")
	}
	q, err := NewLinearQuery(linalg.VectorOf(1, -2), 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.NoiseScale(); got != 2 {
		t.Fatalf("NoiseScale = %v, want 2 for variance 8", got)
	}
	if _, err := NewLinearQuery(linalg.VectorOf(math.Inf(1)), 1); err == nil {
		t.Fatal("expected error for Inf weight")
	}
	// Weights are copied, not aliased.
	w := linalg.VectorOf(5)
	q2, _ := NewLinearQuery(w, 1)
	w[0] = 99
	if q2.SupportWeights()[0] != 5 {
		t.Fatal("query aliased caller weights")
	}
}

func TestTrueAnswerAndNoise(t *testing.T) {
	q, _ := NewLinearQuery(linalg.VectorOf(1, 2, 3), 2)
	data := linalg.VectorOf(1, 1, 1)
	ta, err := q.TrueAnswer(data)
	if err != nil {
		t.Fatal(err)
	}
	if ta != 6 {
		t.Fatalf("TrueAnswer = %v", ta)
	}
	if _, err := q.TrueAnswer(linalg.VectorOf(1)); err == nil {
		t.Fatal("expected length error")
	}
	// Noisy answers are unbiased with the requested variance.
	r := randx.New(7)
	const n = 100000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		a, err := q.Answer(data, r)
		if err != nil {
			t.Fatal(err)
		}
		d := a - 6
		sum += d
		sumsq += d * d
	}
	if math.Abs(sum/n) > 0.02 {
		t.Errorf("noise mean %v", sum/n)
	}
	if math.Abs(sumsq/n-2)/2 > 0.05 {
		t.Errorf("noise variance %v, want ~2", sumsq/n)
	}
}

func TestLeakages(t *testing.T) {
	q, _ := NewLinearQuery(linalg.VectorOf(1, -2, 0), 2) // b = 1
	ranges := linalg.VectorOf(1, 0.5, 3)
	eps, err := q.Leakages(ranges)
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.VectorOf(1, 1, 0)
	if !eps.Equal(want, 1e-12) {
		t.Fatalf("leakages = %v, want %v", eps, want)
	}
	if _, err := q.Leakages(linalg.VectorOf(1)); err == nil {
		t.Fatal("expected length error")
	}
}

// Negative-range validation is hoisted out of the Leakages hot loop:
// ValidateRanges is the construction-time gate the range-owning
// constructors (NewBroker, NewConsumerModel) call once.
func TestValidateRanges(t *testing.T) {
	if err := ValidateRanges(linalg.VectorOf(0, 1, 4.5)); err != nil {
		t.Fatalf("valid ranges rejected: %v", err)
	}
	for _, bad := range []linalg.Vector{
		linalg.VectorOf(1, -1, 1),
		linalg.VectorOf(math.NaN()),
		linalg.VectorOf(math.Inf(1)),
	} {
		if err := ValidateRanges(bad); err == nil {
			t.Fatalf("ranges %v accepted", bad)
		}
	}
}

// Leakage scales inversely with noise scale: more noise, more privacy.
func TestLeakageMonotoneInNoise(t *testing.T) {
	w := linalg.VectorOf(1, 2)
	ranges := linalg.VectorOf(1, 1)
	prev := math.Inf(1)
	for _, variance := range []float64{0.1, 1, 10, 100} {
		q, _ := NewLinearQuery(w, variance)
		eps, _ := q.Leakages(ranges)
		if eps.Sum() >= prev {
			t.Fatalf("leakage not decreasing in noise at variance %v", variance)
		}
		prev = eps.Sum()
	}
}

func TestTanhContract(t *testing.T) {
	c, err := NewTanhContract(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Compensation(0) != 0 || c.Compensation(-1) != 0 {
		t.Fatal("zero/negative leakage must pay 0")
	}
	// Saturation at ρ.
	if got := c.Compensation(100); math.Abs(got-2) > 1e-9 {
		t.Fatalf("saturated compensation = %v, want 2", got)
	}
	// Small-leakage slope ≈ ρη.
	small := 1e-6
	if got := c.Compensation(small) / small; math.Abs(got-6) > 1e-3 {
		t.Fatalf("initial slope = %v, want 6", got)
	}
	if _, err := NewTanhContract(0, 1); err == nil {
		t.Fatal("expected rho error")
	}
	if _, err := NewTanhContract(1, 0); err == nil {
		t.Fatal("expected eta error")
	}
}

func TestLinearContract(t *testing.T) {
	c, err := NewLinearContract(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Compensation(2); got != 3 {
		t.Fatalf("compensation = %v", got)
	}
	if c.Compensation(-1) != 0 {
		t.Fatal("negative leakage must pay 0")
	}
	if _, err := NewLinearContract(0); err == nil {
		t.Fatal("expected rho error")
	}
}

// Property: contracts are non-negative and non-decreasing in leakage.
func TestContractMonotoneProperty(t *testing.T) {
	tc, _ := NewTanhContract(1.3, 0.8)
	lc, _ := NewLinearContract(0.9)
	f := func(a, b float64) bool {
		x := math.Abs(math.Mod(a, 100))
		y := math.Abs(math.Mod(b, 100))
		if x > y {
			x, y = y, x
		}
		for _, c := range []Contract{tc, lc} {
			if c.Compensation(x) < 0 || c.Compensation(x) > c.Compensation(y)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompensationsAndTotal(t *testing.T) {
	tc, _ := NewTanhContract(1, 1)
	lc, _ := NewLinearContract(2)
	comps, err := Compensations(linalg.VectorOf(1, 0.5), []Contract{tc, lc})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(comps[0]-math.Tanh(1)) > 1e-12 || comps[1] != 1 {
		t.Fatalf("comps = %v", comps)
	}
	if got := comps.Sum(); math.Abs(got-(math.Tanh(1)+1)) > 1e-12 {
		t.Fatalf("total = %v", got)
	}
	if _, err := Compensations(linalg.VectorOf(1), []Contract{tc, lc}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := Compensations(linalg.VectorOf(1), []Contract{nil}); err == nil {
		t.Fatal("expected nil contract error")
	}
}

func TestContractNames(t *testing.T) {
	tc, _ := NewTanhContract(1, 2)
	lc, _ := NewLinearContract(3)
	if tc.Name() == "" || lc.Name() == "" {
		t.Fatal("empty contract names")
	}
}

// --- sparse support pipeline ---

func TestSupportRepresentation(t *testing.T) {
	q, err := NewLinearQuery(linalg.VectorOf(0, 2, 0, -1, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	sup := q.Support()
	if len(sup) != 2 || sup[0] != 1 || sup[1] != 3 {
		t.Fatalf("support = %v, want [1 3]", sup)
	}
	// An all-zero query has an empty, non-nil support.
	zq, err := NewLinearQuery(linalg.VectorOf(0, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if s := zq.Support(); s == nil || len(s) != 0 {
		t.Fatalf("zero query support = %v, want empty", s)
	}
}

func TestNewSparseLinearQuery(t *testing.T) {
	q, err := NewSparseLinearQuery(6, []int{1, 4}, linalg.VectorOf(2, -3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Owners() != 6 || !q.SupportWeights().Equal(linalg.VectorOf(2, -3), 0) {
		t.Fatalf("owners %d, support weights %v", q.Owners(), q.SupportWeights())
	}
	sup := q.Support()
	if len(sup) != 2 || sup[0] != 1 || sup[1] != 4 {
		t.Fatalf("support = %v", sup)
	}
	// Explicit zero weights drop out of the support.
	q, err = NewSparseLinearQuery(4, []int{0, 2}, linalg.VectorOf(0, 5), 1)
	if err != nil {
		t.Fatal(err)
	}
	if sup := q.Support(); len(sup) != 1 || sup[0] != 2 {
		t.Fatalf("support = %v, want [2]", sup)
	}
	for _, tc := range []struct {
		name  string
		n     int
		idx   []int
		w     linalg.Vector
		noise float64
	}{
		{"zero owners", 0, nil, nil, 1},
		{"length mismatch", 4, []int{1}, linalg.VectorOf(1, 2), 1},
		{"NaN weight", 4, []int{1}, linalg.VectorOf(math.NaN()), 1},
		{"Inf weight", 4, []int{1}, linalg.VectorOf(math.Inf(-1)), 1},
		{"index out of range", 4, []int{4}, linalg.VectorOf(1), 1},
		{"negative index", 4, []int{-1}, linalg.VectorOf(1), 1},
		{"unsorted indices", 4, []int{2, 1}, linalg.VectorOf(1, 2), 1},
		{"duplicate indices", 4, []int{1, 1}, linalg.VectorOf(1, 2), 1},
		{"bad variance", 4, []int{1}, linalg.VectorOf(1), 0},
	} {
		if _, err := NewSparseLinearQuery(tc.n, tc.idx, tc.w, tc.noise); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

// denseLeakages is the seed's dense leakage loop, kept as the test
// reference: εᵢ = |wᵢ|·Δᵢ/b over every owner.
func denseLeakages(weights, ranges linalg.Vector, variance float64) linalg.Vector {
	b := math.Sqrt(variance / 2)
	eps := make(linalg.Vector, len(weights))
	for i, w := range weights {
		eps[i] = math.Abs(w) * ranges[i] / b
	}
	return eps
}

// randomDenseWeights draws n mostly-zero weights of both signs, with
// some explicit -0.0 entries (which the support excludes, as w != 0
// does) and, now and then, no nonzero weight at all.
func randomDenseWeights(r *randx.RNG, n int) linalg.Vector {
	weights := make(linalg.Vector, n)
	if r.Intn(10) == 0 {
		return weights
	}
	for i := range weights {
		switch u := r.Float64(); {
		case u < 0.1:
			weights[i] = math.Copysign(0, -1)
		case u < 0.6: // mostly sparse
		default:
			weights[i] = r.Normal(0, 2)
		}
	}
	return weights
}

// TestSupportPipelineMatchesDense pins the sparse leakage/compensation
// path bit-for-bit against the dense seed pipeline: the support entries
// must be identical float64s, and every off-support dense entry must be
// exactly zero.
func TestSupportPipelineMatchesDense(t *testing.T) {
	r := randx.New(99)
	tc, _ := NewTanhContract(1.5, 2)
	lc, _ := NewLinearContract(0.5)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		weights := randomDenseWeights(r, n)
		ranges := make(linalg.Vector, n)
		contracts := make([]Contract, n)
		for i := range ranges {
			ranges[i] = r.Uniform(0, 5)
			if r.Bool() {
				contracts[i] = tc
			} else {
				contracts[i] = lc
			}
		}
		variance := math.Pow(10, float64(r.Intn(9)-4))
		q, err := NewLinearQuery(weights, variance)
		if err != nil {
			t.Fatal(err)
		}
		denseLeak := denseLeakages(weights, ranges, variance)
		if got, err := q.Leakages(ranges); err != nil || !reflect.DeepEqual(got, denseLeak) {
			t.Fatalf("trial %d: Leakages = %v (err %v), dense reference %v", trial, got, err, denseLeak)
		}
		denseComp, err := Compensations(denseLeak, contracts)
		if err != nil {
			t.Fatal(err)
		}
		sup := q.Support()
		sparseLeak, err := q.SupportLeakages(nil, ranges)
		if err != nil {
			t.Fatal(err)
		}
		sparseComp, err := SupportCompensations(nil, sup, sparseLeak, contracts)
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		for i := 0; i < n; i++ {
			if k < len(sup) && sup[k] == i {
				if sparseLeak[k] != denseLeak[i] || sparseComp[k] != denseComp[i] {
					t.Fatalf("trial %d owner %d: sparse (%v, %v) != dense (%v, %v)",
						trial, i, sparseLeak[k], sparseComp[k], denseLeak[i], denseComp[i])
				}
				k++
				continue
			}
			if denseLeak[i] != 0 || denseComp[i] != 0 {
				t.Fatalf("trial %d owner %d off support but dense (%v, %v) != 0",
					trial, i, denseLeak[i], denseComp[i])
			}
		}
		if k != len(sup) {
			t.Fatalf("trial %d: consumed %d of %d support entries", trial, k, len(sup))
		}
	}
}

func TestSupportPipelineErrors(t *testing.T) {
	q, _ := NewLinearQuery(linalg.VectorOf(1, 0, 2), 1)
	if _, err := q.SupportLeakages(nil, linalg.VectorOf(1)); err == nil {
		t.Fatal("expected length error")
	}
	tc, _ := NewTanhContract(1, 1)
	if _, err := SupportCompensations(nil, []int{0, 2}, linalg.VectorOf(1), []Contract{tc, tc, tc}); err == nil {
		t.Fatal("expected alignment error")
	}
	if _, err := SupportCompensations(nil, []int{5}, linalg.VectorOf(1), []Contract{tc}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := SupportCompensations(nil, []int{0}, linalg.VectorOf(1), []Contract{nil}); err == nil {
		t.Fatal("expected nil contract error")
	}
}

// TestTrueAnswerMatchesDense pins the support-only TrueAnswer bit for
// bit against the seed's dense Σ wᵢ·dᵢ over every owner, across random
// queries with negative and -0.0 weights and empty supports, built both
// from dense weights and from their support.
func TestTrueAnswerMatchesDense(t *testing.T) {
	r := randx.New(7)
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(60)
		weights := randomDenseWeights(r, n)
		data := r.NormalVector(n, 3)
		want := weights.Dot(data)
		var idx []int
		var sw linalg.Vector
		for i, w := range weights {
			if r.Bool() || w != 0 { // the sparse form may list zeros too
				idx = append(idx, i)
				sw = append(sw, w)
			}
		}
		dense, err := NewLinearQuery(weights, 1)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := NewSparseLinearQuery(n, idx, sw, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []*LinearQuery{dense, sparse} {
			got, err := q.TrueAnswer(data)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: TrueAnswer %v (%#x), dense %v (%#x)",
					trial, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		if !slices.Equal(dense.Support(), sparse.Support()) ||
			!slices.Equal(dense.SupportWeights(), sparse.SupportWeights()) {
			t.Fatalf("trial %d: dense-built support %v/%v, sparse-built %v/%v", trial,
				dense.Support(), dense.SupportWeights(), sparse.Support(), sparse.SupportWeights())
		}
	}
}

var sinkQuery *LinearQuery

// TestNewSparseLinearQueryAllocs pins that building a query from its
// support costs O(support) memory, not O(owners): 32 entries over a
// 65,536-owner market must stay under 2 KiB per call (a dense copy of
// the weights alone would be 512 KiB).
func TestNewSparseLinearQueryAllocs(t *testing.T) {
	const owners, entries, calls = 1 << 16, 32, 200
	idx := make([]int, entries)
	w := make(linalg.Vector, entries)
	for k := range idx {
		idx[k] = k * (owners / entries)
		w[k] = float64(k) + 0.5
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		q, err := NewSparseLinearQuery(owners, idx, w, 1)
		if err != nil {
			t.Fatal(err)
		}
		sinkQuery = q
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 2<<10 {
		t.Fatalf("NewSparseLinearQuery allocates %d B per call at %d owners, want < 2 KiB", per, owners)
	}
}
