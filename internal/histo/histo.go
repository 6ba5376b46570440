// Package histo provides a concurrency-safe HDR-style latency histogram
// shared by every benchmark and load-generation tool in the repo. Values
// are recorded into log-linear buckets: 128 unit-width buckets cover
// 0..127 exactly, and each further octave is split into 64 sub-buckets,
// bounding the relative quantile error at 1/64 (~1.6%) across the full
// int64 range. Recording is a single atomic increment, so one histogram
// can be shared by any number of workers.
package histo

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBucketBits is the log2 of the per-octave resolution. Values in
	// [0, 2^subBucketBits) map to their own unit-width bucket.
	subBucketBits = 7
	subBuckets    = 1 << subBucketBits // 128
	halfBuckets   = subBuckets / 2     // 64 per octave past the first
	numBuckets    = subBuckets + (64-subBucketBits)*halfBuckets
)

// Histogram counts int64 values (by convention nanoseconds) in
// log-linear buckets. The zero value is not usable; call New.
type Histogram struct {
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// New returns an empty histogram.
func New() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, numBuckets)}
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	p := bits.Len64(u) - 1 // position of the highest set bit, >= subBucketBits
	shift := p - subBucketBits + 1
	return subBuckets + (p-subBucketBits)*halfBuckets + int(u>>shift) - halfBuckets
}

// bucketMid returns the representative value for a bucket: the midpoint
// of its range (the value itself for the exact unit-width buckets).
func bucketMid(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	oct := (i - subBuckets) / halfBuckets
	pos := (i - subBuckets) % halfBuckets
	shift := uint(oct + 1)
	low := int64(halfBuckets+pos) << shift
	width := int64(1) << shift
	return low + (width-1)/2
}

// Record adds one observation. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RecordDuration records d in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Max returns the largest recorded value (exact, not bucketized).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Sum returns the running sum of recorded values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the arithmetic mean of recorded values, 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns the value at quantile p in [0, 1]: the representative
// value of the smallest bucket whose cumulative count reaches
// ceil(p * Count). Exact for values below 128; otherwise within 1/64
// relative error. The result is clamped to Max so tail quantiles of
// small samples never exceed the true maximum.
func (h *Histogram) Quantile(p float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := uint64(p * float64(total))
	if float64(rank) < p*float64(total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			v := bucketMid(i)
			if m := h.max.Load(); v > m {
				v = m
			}
			return v
		}
	}
	return h.max.Load()
}

// Summary is a JSON-friendly snapshot of a histogram. All value fields
// are divided by the scale passed to Summarize (e.g. 1e3 to report
// nanosecond recordings in microseconds).
type Summary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

// Summarize snapshots the standard percentile set, dividing every value
// by scale. Values round to 3 decimals for stable JSON artifacts.
func (h *Histogram) Summarize(scale float64) Summary {
	if scale == 0 {
		scale = 1
	}
	r := func(v float64) float64 { return float64(int64(float64(v/scale*1000)+0.5)) / 1000 }
	return Summary{
		Count: h.Count(),
		Mean:  r(h.Mean()),
		P50:   r(float64(h.Quantile(0.50))),
		P90:   r(float64(h.Quantile(0.90))),
		P99:   r(float64(h.Quantile(0.99))),
		P999:  r(float64(h.Quantile(0.999))),
		Max:   r(float64(h.Max())),
	}
}
