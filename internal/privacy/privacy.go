// Package privacy implements the differential-privacy substrate the data
// market depends on: the Laplace mechanism for noisy linear queries, the
// per-owner privacy leakage quantification, and the bounded (tanh-based)
// compensation contracts that turn leakage into money — the construction
// the paper adopts from Li et al., "A theory of pricing private data"
// (reference [8]), in §V-A.
//
// The pipeline for one query is:
//
//	leakage εᵢ = |wᵢ|·Δᵢ / b        (Laplace mechanism, noise scale b)
//	compensation πᵢ = ρᵢ·tanh(η·εᵢ) (bounded contract)
//	reserve price  q = Σᵢ πᵢ        (total compensation)
package privacy

import (
	"fmt"
	"math"

	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

// LinearQuery is a data consumer's query: a weighted sum over the data
// owners' values with Laplace noise calibrated to the requested variance.
// The pair (weights, variance) is exactly the customization surface the
// paper gives consumers — the analysis (weights) and the accuracy (noise).
//
// A query holds its weights sparsely: the owner count, the ascending
// indices of the nonzero weights (the support), and the weights aligned
// with them. Real consumer queries weight a small subset of owners, and
// every owner outside the support has exactly zero leakage and zero
// compensation (ε = |0|·Δ/b = 0, π(0) = 0) and adds nothing to the
// answer, so everything a query feeds costs O(support), not O(owners).
// Build queries through the constructors; the zero value spans no
// owners.
type LinearQuery struct {
	// NoiseVariance is the variance of the Laplace noise added to the true
	// answer; larger variance means cheaper, more private answers.
	NoiseVariance float64

	owners  int
	support []int
	weights linalg.Vector
}

// validateVariance rejects a non-positive or non-finite noise variance.
func validateVariance(noiseVariance float64) error {
	if noiseVariance <= 0 || math.IsInf(noiseVariance, 0) || math.IsNaN(noiseVariance) {
		return fmt.Errorf("privacy: noise variance must be positive and finite, got %g", noiseVariance)
	}
	return nil
}

// NewLinearQuery validates and builds a query from one weight per owner,
// keeping only the nonzero weights (w != 0, so -0.0 drops out too) in
// one scan. The query copies what it keeps, so the caller keeps
// ownership of its slice.
func NewLinearQuery(weights linalg.Vector, noiseVariance float64) (*LinearQuery, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("privacy: query needs at least one weight")
	}
	if !weights.IsFinite() {
		return nil, fmt.Errorf("privacy: query weights must be finite")
	}
	if err := validateVariance(noiseVariance); err != nil {
		return nil, err
	}
	q := &LinearQuery{NoiseVariance: noiseVariance, owners: len(weights), support: []int{}}
	for i, w := range weights {
		if w != 0 {
			q.support = append(q.support, i)
			q.weights = append(q.weights, w)
		}
	}
	return q, nil
}

// NewLinearQueryShared is NewLinearQuery: a query keeps its own copy of
// the support, so it never aliases the caller's weights.
//
// Deprecated: Use NewLinearQuery.
func NewLinearQueryShared(weights linalg.Vector, noiseVariance float64) (*LinearQuery, error) {
	return NewLinearQuery(weights, noiseVariance)
}

// NewSparseLinearQuery builds a query over n owners from its support
// alone: indices must be strictly increasing in [0, n), weights finite
// and aligned with indices. Explicit zero weights are allowed (they
// simply drop out of the support). It costs O(len(indices)), whatever n
// is.
func NewSparseLinearQuery(n int, indices []int, weights linalg.Vector, noiseVariance float64) (*LinearQuery, error) {
	if n <= 0 {
		return nil, fmt.Errorf("privacy: query needs at least one owner, got %d", n)
	}
	if len(indices) != len(weights) {
		return nil, fmt.Errorf("privacy: %d support indices for %d weights", len(indices), len(weights))
	}
	if !weights.IsFinite() {
		return nil, fmt.Errorf("privacy: query weights must be finite")
	}
	if err := validateVariance(noiseVariance); err != nil {
		return nil, err
	}
	q := &LinearQuery{
		NoiseVariance: noiseVariance,
		owners:        n,
		support:       make([]int, 0, len(indices)),
		weights:       make(linalg.Vector, 0, len(indices)),
	}
	prev := -1
	for k, i := range indices {
		if i <= prev || i >= n {
			return nil, fmt.Errorf("privacy: support indices must be strictly increasing in [0, %d), got %d at position %d", n, i, k)
		}
		prev = i
		if w := weights[k]; w != 0 {
			q.support = append(q.support, i)
			q.weights = append(q.weights, w)
		}
	}
	return q, nil
}

// Owners returns the number of owners the query spans.
func (q *LinearQuery) Owners() int { return q.owners }

// Support returns the ascending indices of the query's nonzero weights.
// The slice is the query's own; callers must not modify it.
func (q *LinearQuery) Support() []int { return q.support }

// SupportWeights returns the query's nonzero weights, aligned entry for
// entry with Support. The slice is the query's own; callers must not
// modify it.
func (q *LinearQuery) SupportWeights() linalg.Vector { return q.weights }

// NoiseScale returns the Laplace scale b = √(variance/2).
func (q *LinearQuery) NoiseScale() float64 { return math.Sqrt(q.NoiseVariance / 2) }

// TrueAnswer returns Σ wᵢ·dᵢ over the owners' data values, summed over
// the support in ascending owner order. For finite data this is bit for
// bit the dense sum: the terms it skips are ±0, and adding ±0 to a sum
// that starts at +0 never changes it.
func (q *LinearQuery) TrueAnswer(data linalg.Vector) (float64, error) {
	if len(data) != q.owners {
		return 0, fmt.Errorf("privacy: query over %d owners, dataset has %d", q.owners, len(data))
	}
	var s float64
	for k, i := range q.support {
		s += float64(q.weights[k] * data[i])
	}
	return s, nil
}

// Answer returns the noisy answer: the true answer plus Laplace noise of
// the requested variance — the Laplace mechanism.
func (q *LinearQuery) Answer(data linalg.Vector, rng *randx.RNG) (float64, error) {
	t, err := q.TrueAnswer(data)
	if err != nil {
		return 0, err
	}
	return t + rng.Laplace(0, q.NoiseScale()), nil
}

// ValidateRanges rejects negative or non-finite sensitivity ranges.
// This validation used to run inside Leakages' per-owner hot loop on
// every trade; it is hoisted here so range-owning constructors
// (market.NewBroker, market.NewConsumerModel) pay it exactly once and
// the leakage functions trust their input.
func ValidateRanges(ranges linalg.Vector) error {
	for i, r := range ranges {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("privacy: owner %d has invalid data range %g (must be finite and non-negative)", i, r)
		}
	}
	return nil
}

// Leakages quantifies each owner's differential privacy leakage under the
// query: εᵢ = |wᵢ|·Δᵢ/b, where Δᵢ bounds the range of owner i's value and
// b is the Laplace noise scale. This is the standard per-owner sensitivity
// analysis of the Laplace mechanism: changing owner i's value by at most
// Δᵢ shifts the true answer by at most |wᵢ|·Δᵢ.
//
// Owners outside the support leak exactly zero. ranges must be
// non-negative and finite — validate once at construction with
// ValidateRanges; the leakage loop trusts its input.
func (q *LinearQuery) Leakages(ranges linalg.Vector) (linalg.Vector, error) {
	sup, err := q.SupportLeakages(nil, ranges)
	if err != nil {
		return nil, err
	}
	eps := make(linalg.Vector, q.owners)
	for k, i := range q.support {
		eps[i] = sup[k]
	}
	return eps, nil
}

// SupportLeakages is Leakages restricted to the query's support,
// appending into dst[:0] (pass nil for a fresh slice; reusing dst makes
// the steady state allocation-free). Entry k of the result is the
// leakage of owner Support()[k]; every other owner leaks exactly zero.
// The values are bit-identical to the corresponding dense Leakages
// entries. ranges must be non-negative and finite (ValidateRanges).
func (q *LinearQuery) SupportLeakages(dst linalg.Vector, ranges linalg.Vector) (linalg.Vector, error) {
	if len(ranges) != q.owners {
		return nil, fmt.Errorf("privacy: %d ranges for %d owners", len(ranges), q.owners)
	}
	b := q.NoiseScale()
	dst = dst[:0]
	for k, i := range q.support {
		dst = append(dst, math.Abs(q.weights[k])*ranges[i]/b)
	}
	return dst, nil
}

// Contract is a privacy compensation contract π(ε): the payment an owner
// receives for a leakage of ε. Contracts must be non-negative,
// non-decreasing, and zero at zero leakage.
type Contract interface {
	// Compensation returns π(ε) for leakage ε ≥ 0.
	Compensation(eps float64) float64
	// Name identifies the contract for reports.
	Name() string
}

// TanhContract is the bounded contract π(ε) = ρ·tanh(η·ε): payments grow
// almost linearly (slope ρη) for small leakages and saturate at ρ, so an
// owner's total exposure is capped no matter how invasive the query. This
// is the "tanh based privacy compensation function" the paper adopts for
// the MovieLens experiment.
type TanhContract struct {
	// Rho is the saturation payment ρ > 0.
	Rho float64
	// Eta is the sensitivity η > 0 of payment to leakage.
	Eta float64
}

// NewTanhContract validates and builds a tanh contract.
func NewTanhContract(rho, eta float64) (TanhContract, error) {
	// A bare rho <= 0 guard admits NaN (every ordered comparison with
	// NaN is false), and a NaN contract poisons every compensation —
	// and through the reserve price, every trade — downstream.
	if math.IsNaN(rho) || math.IsInf(rho, 0) || math.IsNaN(eta) || math.IsInf(eta, 0) {
		return TanhContract{}, fmt.Errorf("privacy: tanh contract needs finite rho and eta, got %g, %g", rho, eta)
	}
	if rho <= 0 || eta <= 0 {
		return TanhContract{}, fmt.Errorf("privacy: tanh contract needs positive rho and eta, got %g, %g", rho, eta)
	}
	return TanhContract{Rho: rho, Eta: eta}, nil
}

// Compensation returns ρ·tanh(η·ε) (0 for ε ≤ 0).
func (c TanhContract) Compensation(eps float64) float64 {
	if eps <= 0 {
		return 0
	}
	return c.Rho * math.Tanh(c.Eta*eps)
}

// Name identifies the contract.
func (c TanhContract) Name() string {
	return fmt.Sprintf("tanh(ρ=%g,η=%g)", c.Rho, c.Eta)
}

// LinearContract is the unbounded contract π(ε) = ρ·ε, the other canonical
// family from Li et al.; useful for sensitivity ablations.
type LinearContract struct {
	// Rho is the payment per unit of leakage.
	Rho float64
}

// NewLinearContract validates and builds a linear contract.
func NewLinearContract(rho float64) (LinearContract, error) {
	if math.IsNaN(rho) || math.IsInf(rho, 0) {
		return LinearContract{}, fmt.Errorf("privacy: linear contract needs finite rho, got %g", rho)
	}
	if rho <= 0 {
		return LinearContract{}, fmt.Errorf("privacy: linear contract needs positive rho, got %g", rho)
	}
	return LinearContract{Rho: rho}, nil
}

// Compensation returns ρ·ε (0 for ε ≤ 0).
func (c LinearContract) Compensation(eps float64) float64 {
	if eps <= 0 {
		return 0
	}
	return c.Rho * eps
}

// Name identifies the contract.
func (c LinearContract) Name() string { return fmt.Sprintf("linear(ρ=%g)", c.Rho) }

// Compensations applies each owner's contract to the leakage vector.
func Compensations(leakages linalg.Vector, contracts []Contract) (linalg.Vector, error) {
	if len(leakages) != len(contracts) {
		return nil, fmt.Errorf("privacy: %d leakages for %d contracts", len(leakages), len(contracts))
	}
	out := make(linalg.Vector, len(leakages))
	for i, eps := range leakages {
		if contracts[i] == nil {
			return nil, fmt.Errorf("privacy: nil contract for owner %d", i)
		}
		out[i] = contracts[i].Compensation(eps)
	}
	return out, nil
}

// SupportCompensations applies each supported owner's contract to the
// support-aligned leakage vector, appending into dst[:0] (pass nil for
// a fresh slice). support and leakages must align entry for entry —
// the shapes SupportLeakages produces. The values are bit-identical to
// the corresponding dense Compensations entries; owners outside the
// support are owed exactly zero (π(0) = 0 by the Contract invariant).
func SupportCompensations(dst linalg.Vector, support []int, leakages linalg.Vector, contracts []Contract) (linalg.Vector, error) {
	if len(support) != len(leakages) {
		return nil, fmt.Errorf("privacy: %d support indices for %d leakages", len(support), len(leakages))
	}
	dst = dst[:0]
	for k, i := range support {
		if i < 0 || i >= len(contracts) {
			return nil, fmt.Errorf("privacy: support index %d out of range for %d contracts", i, len(contracts))
		}
		if contracts[i] == nil {
			return nil, fmt.Errorf("privacy: nil contract for owner %d", i)
		}
		dst = append(dst, contracts[i].Compensation(leakages[k]))
	}
	return dst, nil
}
