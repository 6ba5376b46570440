package stats

import (
	"math"
	"testing"
)

func TestOnlineMatchesBatch(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	o := NewOnline()
	o.AddAll(xs)
	if o.Count() != 8 {
		t.Fatalf("Count = %d", o.Count())
	}
	if math.Abs(o.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", o.Mean())
	}
	if math.Abs(o.Variance()-4) > 1e-12 {
		t.Fatalf("Variance = %v, want 4", o.Variance())
	}
	if math.Abs(o.Std()-2) > 1e-12 {
		t.Fatalf("Std = %v, want 2", o.Std())
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", o.Min(), o.Max())
	}
}

func TestOnlineEmptyAndSingle(t *testing.T) {
	o := NewOnline()
	if o.Variance() != 0 || o.Mean() != 0 {
		t.Fatal("empty accumulator must be zero")
	}
	o.Add(3)
	if o.Variance() != 0 || o.Mean() != 3 {
		t.Fatal("single observation variance must be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.String() != "3.000 (1.414)" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); math.Abs(q-2.5) > 1e-12 {
		t.Fatalf("median = %v", q)
	}
	// Out-of-range q clamps.
	if q := Quantile(xs, -3); q != 1 {
		t.Fatalf("clamped q = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile must be NaN")
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Fatal("Quantile mutated input")
	}
}

func TestRatioSeries(t *testing.T) {
	got := RatioSeries([]float64{1, 4, 5}, []float64{2, 2, 0})
	if got[0] != 0.5 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("RatioSeries = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	RatioSeries([]float64{1}, []float64{1, 2})
}

func TestMeanStdHelpers(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{1, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if math.Abs(Std([]float64{2, 4, 4, 4, 5, 5, 7, 9})-2) > 1e-12 {
		t.Fatal("Std wrong")
	}
}
