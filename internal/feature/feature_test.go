package feature

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

func TestPartitionAggregate(t *testing.T) {
	vals := linalg.VectorOf(5, 1, 4, 2, 3, 6) // sorted: 1 2 3 4 5 6
	got, err := PartitionAggregate(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.VectorOf(3, 7, 11)
	if !got.Equal(want, 1e-12) {
		t.Fatalf("aggregate = %v, want %v", got, want)
	}
	// n = 1: total.
	tot, _ := PartitionAggregate(vals, 1)
	if tot[0] != 21 {
		t.Fatalf("total = %v", tot[0])
	}
	// n = len: sorted values themselves.
	all, _ := PartitionAggregate(vals, 6)
	if !all.Equal(linalg.VectorOf(1, 2, 3, 4, 5, 6), 0) {
		t.Fatalf("identity partition = %v", all)
	}
	// Uneven split: 5 values into 2 partitions → sizes 3 and 2.
	un, _ := PartitionAggregate(linalg.VectorOf(1, 2, 3, 4, 5), 2)
	if !un.Equal(linalg.VectorOf(6, 9), 1e-12) {
		t.Fatalf("uneven = %v", un)
	}
	// Input must not be mutated.
	if vals[0] != 5 {
		t.Fatal("PartitionAggregate mutated input")
	}
}

func TestPartitionAggregateErrors(t *testing.T) {
	if _, err := PartitionAggregate(linalg.VectorOf(1), 0); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := PartitionAggregate(nil, 1); err == nil {
		t.Fatal("expected error for empty values")
	}
	if _, err := PartitionAggregate(linalg.VectorOf(1, 2), 3); err == nil {
		t.Fatal("expected error for n > len")
	}
}

// Property: the aggregate preserves the total mass for any partition count.
func TestPartitionPreservesSumProperty(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make(linalg.Vector, 0, len(raw))
		var sum float64
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Mod(v, 1e6)
			vals = append(vals, v)
			sum += v
		}
		if len(vals) == 0 {
			return true
		}
		k := 1 + int(kRaw)%len(vals)
		agg, err := PartitionAggregate(vals, k)
		if err != nil {
			return false
		}
		return math.Abs(agg.Sum()-sum) <= 1e-6*math.Max(1, math.Abs(sum))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestL2NormalizedAndCompensationFeatures(t *testing.T) {
	v, norm := L2Normalized(linalg.VectorOf(3, 4))
	if math.Abs(norm-5) > 1e-12 || math.Abs(v.Norm2()-1) > 1e-12 {
		t.Fatalf("normalize: %v %v", v, norm)
	}
	z, zn := L2Normalized(linalg.VectorOf(0, 0))
	if zn != 0 || z.Norm2() != 0 {
		t.Fatal("zero vector normalization wrong")
	}
	comps := linalg.VectorOf(1, 2, 3, 4)
	x, scale, reserve, err := CompensationFeatures(comps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x.Norm2()-1) > 1e-12 {
		t.Fatalf("feature norm = %v", x.Norm2())
	}
	// Aggregate is (3, 7), norm √58; reserve = (3+7)/√58.
	if math.Abs(scale-math.Sqrt(58)) > 1e-9 {
		t.Fatalf("scale = %v", scale)
	}
	if math.Abs(reserve-10/math.Sqrt(58)) > 1e-9 {
		t.Fatalf("reserve = %v", reserve)
	}
}

func TestHasher(t *testing.T) {
	h, err := NewHasher(64)
	if err != nil {
		t.Fatal(err)
	}
	if h.Dim() != 64 {
		t.Fatalf("Dim = %d", h.Dim())
	}
	i1 := h.Index("site", "abc")
	if i1 < 0 || i1 >= 64 {
		t.Fatalf("index out of range: %d", i1)
	}
	// Deterministic.
	if h.Index("site", "abc") != i1 {
		t.Fatal("hash index not deterministic")
	}
	// Field separation: same value under different fields should usually
	// land differently (guaranteed for this particular pair).
	if h.Index("site", "abc") == h.Index("app", "abc") &&
		h.Index("site", "xyz") == h.Index("app", "xyz") {
		t.Fatal("field name appears to be ignored by the hash")
	}
	v := h.Encode(map[string]string{"site": "abc", "app": "xyz"})
	if v.Sum() != 2 {
		t.Fatalf("encoded mass = %v, want 2", v.Sum())
	}
	if _, err := NewHasher(0); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestStandardizer(t *testing.T) {
	rows := []linalg.Vector{
		linalg.VectorOf(1, 10, 7),
		linalg.VectorOf(3, 10, 7),
		linalg.VectorOf(5, 10, 7),
	}
	s, err := FitStandardizer(rows)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Transform(linalg.VectorOf(3, 10, 7))
	if err != nil {
		t.Fatal(err)
	}
	// Column 0: mean 3 → 0. Constant columns pass through centered.
	if math.Abs(out[0]) > 1e-12 || math.Abs(out[1]) > 1e-12 || math.Abs(out[2]) > 1e-12 {
		t.Fatalf("transform = %v", out)
	}
	// Transformed sample has unit variance in column 0.
	var sumsq float64
	for _, r := range rows {
		tr, _ := s.Transform(r)
		sumsq += tr[0] * tr[0]
	}
	if math.Abs(sumsq/3-1) > 1e-9 {
		t.Fatalf("variance = %v", sumsq/3)
	}
	if _, err := s.Transform(linalg.VectorOf(1)); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := FitStandardizer(nil); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := FitStandardizer([]linalg.Vector{linalg.VectorOf(1), linalg.VectorOf(1, 2)}); err == nil {
		t.Fatal("expected ragged error")
	}
}

func TestNonzeroAndProject(t *testing.T) {
	v := linalg.VectorOf(0.1, 5, 0, -3, 2)
	nz := NonzeroIndices(v, 0.5)
	if len(nz) != 3 || nz[0] != 1 || nz[1] != 3 || nz[2] != 4 {
		t.Fatalf("nonzero = %v", nz)
	}
	pr, err := Project(v, nz)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Equal(linalg.VectorOf(5, -3, 2), 0) {
		t.Fatalf("projected = %v", pr)
	}
	if _, err := Project(v, []int{9}); err == nil {
		t.Fatal("expected range error")
	}
}

// TestPartitionAggregateSortedMatchesDense pins the sparse aggregation
// bit-for-bit against PartitionAggregate over the materialized dense
// vector, across random mixes of negatives, zeros, and positives.
func TestPartitionAggregateSortedMatchesDense(t *testing.T) {
	r := randx.New(31)
	for trial := 0; trial < 300; trial++ {
		nonzero := r.Intn(30)
		zeros := r.Intn(50)
		total := nonzero + zeros
		if total == 0 {
			total, zeros = 1, 1
		}
		vals := make(linalg.Vector, 0, nonzero)
		for i := 0; i < nonzero; i++ {
			v := r.Normal(0, 3)
			if v == 0 {
				v = 1
			}
			vals = append(vals, v)
		}
		sorted := vals.Clone()
		sort.Float64s(sorted)
		dense := make(linalg.Vector, 0, total)
		dense = append(dense, vals...)
		for i := 0; i < zeros; i++ {
			dense = append(dense, 0)
		}
		n := 1 + r.Intn(total)
		want, err := PartitionAggregate(dense, n)
		if err != nil {
			t.Fatal(err)
		}
		got := make(linalg.Vector, n)
		if err := PartitionAggregateSorted(got, sorted, zeros); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (nonzero=%d zeros=%d n=%d) partition %d: sparse %v != dense %v",
					trial, nonzero, zeros, n, i, got[i], want[i])
			}
		}
	}
}

func TestPartitionAggregateSortedErrors(t *testing.T) {
	if err := PartitionAggregateSorted(nil, linalg.VectorOf(1), 0); err == nil {
		t.Fatal("expected partition count error")
	}
	if err := PartitionAggregateSorted(make(linalg.Vector, 1), linalg.VectorOf(1), -1); err == nil {
		t.Fatal("expected negative zeros error")
	}
	if err := PartitionAggregateSorted(make(linalg.Vector, 1), nil, 0); err == nil {
		t.Fatal("expected empty error")
	}
	if err := PartitionAggregateSorted(make(linalg.Vector, 3), linalg.VectorOf(1), 1); err == nil {
		t.Fatal("expected too-many-partitions error")
	}
}
