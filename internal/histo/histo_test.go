package histo

import (
	"math"
	"sync"
	"testing"
	"time"

	"datamarket/internal/randx"
)

func TestExactSmallValues(t *testing.T) {
	// Values below 128 land in unit-width buckets, so every quantile of a
	// known small-valued distribution must be exact.
	h := New()
	for v := int64(1); v <= 100; v++ {
		h.Record(v)
	}
	cases := []struct {
		p    float64
		want int64
	}{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100},
	}
	for _, c := range cases {
		if got := h.Quantile(c.p); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d, want 100", h.Count())
	}
	if h.Max() != 100 {
		t.Errorf("Max = %d, want 100", h.Max())
	}
	if got := h.Mean(); got != 50.5 {
		t.Errorf("Mean = %v, want 50.5", got)
	}
}

func TestRelativeErrorLargeValues(t *testing.T) {
	// Past the unit-width range every bucket midpoint is within 1/64 of
	// the true value.
	for _, v := range []int64{128, 129, 1000, 123_456, 1 << 30, 1<<40 + 12345, math.MaxInt64 / 3} {
		h := New()
		h.Record(v)
		got := h.Quantile(0.5)
		relErr := math.Abs(float64(got-v)) / float64(v)
		if relErr > 1.0/64 {
			t.Errorf("value %d: quantile %d, relative error %.4f > 1/64", v, got, relErr)
		}
	}
}

func TestConcurrentRecord(t *testing.T) {
	h := New()
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := randx.NewStream(11, uint64(w))
			for i := 0; i < per; i++ {
				h.Record(int64(r.Intn(1_000_000)))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("Count = %d, want %d", h.Count(), workers*per)
	}
	if h.Quantile(0.5) <= 0 || h.Quantile(0.999) < h.Quantile(0.5) {
		t.Fatalf("implausible quantiles p50=%d p999=%d", h.Quantile(0.5), h.Quantile(0.999))
	}
}

func TestSummarize(t *testing.T) {
	h := New()
	h.RecordDuration(100 * time.Microsecond)
	h.RecordDuration(200 * time.Microsecond)
	s := h.Summarize(1e3) // report in microseconds
	if s.Count != 2 {
		t.Fatalf("Count = %d, want 2", s.Count)
	}
	if s.Max != 200 {
		t.Errorf("Max = %v, want 200", s.Max)
	}
	if s.Mean != 150 {
		t.Errorf("Mean = %v, want 150", s.Mean)
	}
	if s.P99 < 190 || s.P99 > 200 {
		t.Errorf("P99 = %v, want ~200 within 1/64", s.P99)
	}
	var empty Summary
	if got := New().Summarize(1e3); got != empty {
		t.Errorf("empty Summarize = %+v, want zero", got)
	}
}

func TestNegativeClampsToZero(t *testing.T) {
	h := New()
	h.Record(-5)
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative record not clamped: q50=%d max=%d count=%d",
			h.Quantile(0.5), h.Max(), h.Count())
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// Every bucket's midpoint must map back to the same bucket, and
	// indexes must be monotone in the value.
	prev := -1
	for _, v := range []int64{0, 1, 127, 128, 255, 256, 1023, 1 << 20, 1 << 40, math.MaxInt64} {
		i := bucketIndex(v)
		if i <= prev && v != 0 {
			t.Errorf("bucketIndex not monotone at %d: %d <= %d", v, i, prev)
		}
		prev = i
		if j := bucketIndex(bucketMid(i)); j != i {
			t.Errorf("bucketMid(%d) = %d maps to bucket %d", i, bucketMid(i), j)
		}
	}
}
