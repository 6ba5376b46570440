package randx

import (
	"math"
	"testing"
)

func TestSubGaussianFamilies(t *testing.T) {
	r := New(13)
	for _, kind := range []NoiseKind{NoiseNormal, NoiseUniform, NoiseRademacher} {
		s, err := NewSubGaussianNoise(kind, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		const n = 100000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			x := s.Sample(r)
			sum += x
			sumsq += x * x
		}
		mean := sum / n
		if math.Abs(mean) > 0.01 {
			t.Errorf("kind %d mean = %v", kind, mean)
		}
		// All three families here have variance σ² by construction.
		varc := sumsq/n - mean*mean
		if math.Abs(varc-0.25)/0.25 > 0.05 {
			t.Errorf("kind %d variance = %v, want ~0.25", kind, varc)
		}
	}
}

func TestSubGaussianZeroAndNone(t *testing.T) {
	r := New(14)
	z, err := NewSubGaussianNoise(NoiseNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if z.Sample(r) != 0 {
		t.Fatal("sigma=0 must sample 0")
	}
	none, _ := NewSubGaussianNoise(NoiseNone, 1)
	if none.Sample(r) != 0 {
		t.Fatal("NoiseNone must sample 0")
	}
	if _, err := NewSubGaussianNoise(NoiseNormal, -1); err == nil {
		t.Fatal("expected error for negative sigma")
	}
}

func TestBufferRoundTrip(t *testing.T) {
	for _, T := range []int{10, 1000, 100000} {
		sigma := SigmaForBuffer(0.01, T)
		if got := Buffer(sigma, T); math.Abs(got-0.01) > 1e-12 {
			t.Fatalf("T=%d: Buffer(SigmaForBuffer(0.01)) = %v", T, got)
		}
	}
	if Buffer(0, 100) != 0 || Buffer(1, 1) != 0 {
		t.Fatal("degenerate Buffer cases must be 0")
	}
	if SigmaForBuffer(0, 100) != 0 {
		t.Fatal("SigmaForBuffer(0) must be 0")
	}
}

// The buffer must actually dominate the noise with overwhelming
// probability, which is the property Algorithm 2 relies on (Eq. 6).
func TestBufferDominatesNoise(t *testing.T) {
	r := New(15)
	T := 10000
	sigma := 0.05
	delta := Buffer(sigma, T)
	s, _ := NewSubGaussianNoise(NoiseNormal, sigma)
	exceed := 0
	for i := 0; i < T; i++ {
		if math.Abs(s.Sample(r)) > delta {
			exceed++
		}
	}
	// Theory says ≲ 1 exceedance in T rounds; allow small slack.
	if exceed > 3 {
		t.Fatalf("noise exceeded buffer %d/%d times (delta=%v)", exceed, T, delta)
	}
}
