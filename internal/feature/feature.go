// Package feature implements the feature engineering pipeline of the
// paper's three applications:
//
//   - §II-B / §V-A: sorted-partition aggregation of per-owner privacy
//     compensations into an n-dimensional feature vector, L2-normalized;
//   - §V-B: column standardization of the Airbnb listing features;
//   - §V-C: one-hot encoding with the hashing trick for the Avazu
//     categorical fields, and the "dense case" projection onto the
//     features with nonzero weights.
package feature

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"datamarket/internal/linalg"
)

// PartitionAggregate implements the paper's compensation aggregation: sort
// the values, divide them evenly into n contiguous partitions, and sum each
// partition to produce one feature (§II-B). n = 1 yields the total
// compensation; n = len(values) yields the per-owner compensations
// themselves (sorted).
func PartitionAggregate(values linalg.Vector, n int) (linalg.Vector, error) {
	if n <= 0 {
		return nil, fmt.Errorf("feature: partition count must be positive, got %d", n)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("feature: no values to aggregate")
	}
	if n > len(values) {
		return nil, fmt.Errorf("feature: %d partitions for %d values", n, len(values))
	}
	sorted := values.Clone()
	sort.Float64s(sorted)
	out := make(linalg.Vector, n)
	// Distribute len(values) items over n partitions as evenly as
	// possible: the first (len mod n) partitions get one extra item.
	base := len(sorted) / n
	extra := len(sorted) % n
	idx := 0
	for p := 0; p < n; p++ {
		size := base
		if p < extra {
			size++
		}
		var s float64
		for k := 0; k < size; k++ {
			s += sorted[idx]
			idx++
		}
		out[p] = s
	}
	return out, nil
}

// PartitionAggregateSorted is the sparse fast path of
// PartitionAggregate: it aggregates an implicitly dense vector given as
// its nonzero values (already sorted ascending) plus a count of
// implicit zero entries, writing the len(dst) partition sums into dst.
// The dense sort would place the zero block between the negative and
// the non-negative values; partition sums accumulate in that same
// ascending order while skipping the zeros, and adding a zero to a
// running sum is an exact identity for the non-negative compensation
// vectors this pipeline aggregates — so the result is bit-identical to
// PartitionAggregate over the materialized dense vector, at O(nonzero)
// instead of O(total) per call.
func PartitionAggregateSorted(dst linalg.Vector, sorted linalg.Vector, zeros int) error {
	n := len(dst)
	if n <= 0 {
		return fmt.Errorf("feature: partition count must be positive, got %d", n)
	}
	if zeros < 0 {
		return fmt.Errorf("feature: negative implicit zero count %d", zeros)
	}
	total := len(sorted) + zeros
	if total == 0 {
		return fmt.Errorf("feature: no values to aggregate")
	}
	if n > total {
		return fmt.Errorf("feature: %d partitions for %d values", n, total)
	}
	// Dense ascending order: sorted[:neg], then the zero block, then
	// sorted[neg:].
	neg := sort.SearchFloat64s(sorted, 0)
	base := total / n
	extra := total % n
	start := 0 // dense index where the current partition begins
	for p := 0; p < n; p++ {
		size := base
		if p < extra {
			size++
		}
		end := start + size
		var s float64
		for d, hi := start, min(end, neg); d < hi; d++ {
			s += sorted[d]
		}
		for d := max(start, neg+zeros); d < end; d++ {
			s += sorted[d-zeros]
		}
		dst[p] = s
		start = end
	}
	return nil
}

// L2Normalized returns v scaled to unit Euclidean norm along with the
// original norm. A zero vector is returned unchanged with norm 0.
func L2Normalized(v linalg.Vector) (linalg.Vector, float64) {
	w := v.Clone()
	norm := w.Normalize()
	return w, norm
}

// CompensationFeatures runs the full §V-A pipeline: aggregate the
// compensations into n partitions and L2-normalize, returning the feature
// vector, the normalization constant, and the reserve price implied by the
// normalized features (the sum of the normalized entries, matching the
// paper's q_t = Σᵢ x_{t,i}).
func CompensationFeatures(compensations linalg.Vector, n int) (x linalg.Vector, scale, reserve float64, err error) {
	agg, err := PartitionAggregate(compensations, n)
	if err != nil {
		return nil, 0, 0, err
	}
	x, scale = L2Normalized(agg)
	return x, scale, x.Sum(), nil
}

// Hasher one-hot encodes categorical field=value pairs into a fixed
// dimension via the hashing trick (§V-C): the feature index is
// FNV64(field ":" value) mod n. Collisions are accepted by design — the
// modulus n is the knob the paper turns (128 and 1024).
type Hasher struct {
	n int
}

// NewHasher builds a hashing encoder with modulus n ≥ 1.
func NewHasher(n int) (*Hasher, error) {
	if n <= 0 {
		return nil, fmt.Errorf("feature: hash dimension must be positive, got %d", n)
	}
	return &Hasher{n: n}, nil
}

// Dim returns the output dimension.
func (h *Hasher) Dim() int { return h.n }

// Index returns the feature index for a field/value pair.
func (h *Hasher) Index(field, value string) int {
	f := fnv.New64a()
	f.Write([]byte(field))
	f.Write([]byte{':'})
	f.Write([]byte(value))
	return int(f.Sum64() % uint64(h.n))
}

// Encode one-hot encodes the pairs into a dense vector: each pair sets its
// hashed index to 1 (duplicate hashes accumulate, as in standard hashing
// encoders).
func (h *Hasher) Encode(pairs map[string]string) linalg.Vector {
	v := make(linalg.Vector, h.n)
	for field, value := range pairs {
		v[h.Index(field, value)]++
	}
	return v
}

// Standardizer centers and scales columns to zero mean and unit variance,
// fitted on a sample — the usual preprocessing before regression.
type Standardizer struct {
	mean  linalg.Vector
	scale linalg.Vector
}

// FitStandardizer estimates per-column mean and standard deviation from
// rows. Columns with zero variance get scale 1 (they pass through
// centered).
func FitStandardizer(rows []linalg.Vector) (*Standardizer, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("feature: no rows to fit")
	}
	d := len(rows[0])
	mean := make(linalg.Vector, d)
	for _, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("feature: ragged rows (%d vs %d)", len(r), d)
		}
		for j, v := range r {
			mean[j] += v
		}
	}
	mean.Scale(1 / float64(len(rows)))
	scale := make(linalg.Vector, d)
	for _, r := range rows {
		for j, v := range r {
			dv := v - mean[j]
			scale[j] += float64(dv * dv)
		}
	}
	for j := range scale {
		scale[j] = scale[j] / float64(len(rows))
		if scale[j] > 0 {
			scale[j] = 1 / math.Sqrt(scale[j])
		} else {
			scale[j] = 1
		}
	}
	return &Standardizer{mean: mean, scale: scale}, nil
}

// Transform returns (x − mean) ⊙ scale.
func (s *Standardizer) Transform(x linalg.Vector) (linalg.Vector, error) {
	if len(x) != len(s.mean) {
		return nil, fmt.Errorf("feature: transform dim %d, want %d", len(x), len(s.mean))
	}
	out := make(linalg.Vector, len(x))
	for i, v := range x {
		out[i] = (v - s.mean[i]) * s.scale[i]
	}
	return out, nil
}

// NonzeroIndices returns the indices where |v[i]| > tol, preserving order.
func NonzeroIndices(v linalg.Vector, tol float64) []int {
	var out []int
	for i, x := range v {
		if x > tol || x < -tol {
			out = append(out, i)
		}
	}
	return out
}

// Project returns the subvector of x at the given indices — the "dense
// case" reduction of §V-C that keeps only features with nonzero weights.
func Project(x linalg.Vector, indices []int) (linalg.Vector, error) {
	out := make(linalg.Vector, len(indices))
	for k, i := range indices {
		if i < 0 || i >= len(x) {
			return nil, fmt.Errorf("feature: projection index %d out of range for dim %d", i, len(x))
		}
		out[k] = x[i]
	}
	return out, nil
}
