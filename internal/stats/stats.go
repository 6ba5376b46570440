// Package stats provides the descriptive statistics used by the evaluation
// harness: streaming (Welford) mean/variance accumulators, summaries and
// quantiles. Table I of the paper reports per-round means and standard
// deviations of market value, reserve price, posted price, and regret — the
// Summary type here is what produces those columns.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Online accumulates count, mean, and variance in one pass using Welford's
// algorithm, which is numerically stable for long streams.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// NewOnline returns an empty accumulator.
func NewOnline() *Online {
	return &Online{min: math.Inf(1), max: math.Inf(-1)}
}

// Add folds one observation into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += float64(d * (x - o.mean))
	if x < o.min {
		o.min = x
	}
	if x > o.max {
		o.max = x
	}
}

// Count returns the number of observations.
func (o *Online) Count() int { return o.n }

// Mean returns the running mean (0 if empty).
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the population variance (0 if fewer than 2 samples).
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// Std returns the population standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Variance()) }

// Min returns the minimum observation (+Inf if empty).
func (o *Online) Min() float64 { return o.min }

// Max returns the maximum observation (−Inf if empty).
func (o *Online) Max() float64 { return o.max }

// OnlineState is the serializable state of an Online accumulator. Min and
// Max are stored only for non-empty accumulators (an empty accumulator's
// ±Inf sentinels are not JSON-encodable); OnlineFromState restores the
// sentinels when N is zero.
type OnlineState struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// State captures the accumulator for durable storage.
func (o *Online) State() OnlineState {
	s := OnlineState{N: o.n, Mean: o.mean, M2: o.m2}
	if o.n > 0 {
		s.Min, s.Max = o.min, o.max
	}
	return s
}

// NewOnlineFromState rebuilds an accumulator captured by State. It
// rejects states no Add sequence can produce.
func NewOnlineFromState(s OnlineState) (*Online, error) {
	if s.N < 0 {
		return nil, fmt.Errorf("stats: online state count %d invalid", s.N)
	}
	for _, v := range [...]float64{s.Mean, s.M2, s.Min, s.Max} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("stats: online state field %g invalid, want finite", v)
		}
	}
	if s.M2 < 0 {
		return nil, fmt.Errorf("stats: online state m2 %g invalid, want ≥ 0", s.M2)
	}
	o := NewOnline()
	if s.N == 0 {
		return o, nil
	}
	if s.Min > s.Max {
		return nil, fmt.Errorf("stats: online state min %g exceeds max %g", s.Min, s.Max)
	}
	o.n, o.mean, o.m2, o.min, o.max = s.N, s.Mean, s.M2, s.Min, s.Max
	return o, nil
}

// Summary describes a sample: what Table I reports of each column.
type Summary struct {
	Count int
	Mean  float64
	Std   float64
	Min   float64
	Max   float64
}

// String renders the mean (std) format used throughout Table I, or
// "n/a" for a summary of no observations.
func (s Summary) String() string {
	if s.Count == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3f (%.3f)", s.Mean, s.Std)
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear
// interpolation between order statistics. It copies and sorts xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := float64(pos) - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}
