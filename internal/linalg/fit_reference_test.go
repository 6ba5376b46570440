//go:build !race

package linalg_test

import (
	"math"
	"math/rand"
	"testing"

	"datamarket/internal/learn"
	"datamarket/internal/linalg"
)

// TestFitLinearMatchesReference fits rows shaped like perfbench's
// impression pool (4,096 hashed 128-dim rows, ridge 1e-8) and requires
// learn.FitLinear's coefficients to equal, bit for bit, those of the same
// ridge-augmented system solved with the column-at-a-time reference QR.
// The test takes under a second, and about 6 s under the race detector,
// so it is built only without it.
func TestFitLinearMatchesReference(t *testing.T) {
	const m, d, fields, ridge = 4096, 128, 22, 1e-8
	rng := rand.New(rand.NewSource(7))
	truth := make(linalg.Vector, d)
	for j := range truth {
		if rng.Intn(6) == 0 {
			truth[j] = rng.NormFloat64()
		}
	}
	rows := make([]linalg.Vector, m)
	y := make(linalg.Vector, m)
	for i := range rows {
		x := make(linalg.Vector, d)
		for f := 0; f < fields; f++ { // signed feature hashing: one ±1 per field
			x[rng.Intn(d)] += float64(1 - 2*rng.Intn(2))
		}
		rows[i] = x
		y[i] = 1 / (1 + math.Exp(-x.Dot(truth)))
	}
	got, err := learn.FitLinear(rows, y, learn.FitOptions{Ridge: ridge})
	if err != nil {
		t.Fatal(err)
	}

	a := linalg.NewMatrix(m+d, d)
	b := make(linalg.Vector, m+d)
	for i, r := range rows {
		copy(a.Row(i), r)
		b[i] = y[i]
	}
	for j := 0; j < d; j++ {
		a.Set(m+j, j, math.Sqrt(ridge))
	}
	want, err := linalg.ReferenceQR(a).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if math.Float64bits(got.Coef[j]) != math.Float64bits(want[j]) {
			t.Fatalf("coefficient %d = %v, want %v", j, got.Coef[j], want[j])
		}
	}
}
