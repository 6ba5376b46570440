package stats

import (
	"math"
	"testing"
)

func TestOnlineMatchesBatch(t *testing.T) {
	o := NewOnline()
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
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
	// Table I renders each column's Summary as "mean (std)", and one of
	// no observations as "n/a".
	if s := (Summary{Count: 2, Mean: 3, Std: math.Sqrt2}).String(); s != "3.000 (1.414)" {
		t.Fatalf("String = %q", s)
	}
	if s := (Summary{}).String(); s != "n/a" {
		t.Fatalf("empty String = %q", s)
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
