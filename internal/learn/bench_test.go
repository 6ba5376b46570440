package learn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"datamarket/internal/linalg"
)

// BenchmarkFitLinear fits synthetic rows, with ridge 1e-8, at the two
// shapes perfbench's set-ups fit: impression's pool of 4,096 hashed
// 128-dim CTR vectors (22 signed ±1 fields a row, click-probability
// targets) and accommodation's 3,200 training listings of 55 standardized
// features and a bias column. The rows are synthetic because
// internal/dataset imports this package. Nearly all of the time is the
// Householder QR of the ridge-augmented design.
func BenchmarkFitLinear(b *testing.B) {
	for _, s := range []struct {
		rows, dim int
		hashed    bool
	}{
		{4096, 128, true},
		{3200, 56, false},
	} {
		b.Run(fmt.Sprintf("%dx%d", s.rows, s.dim), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(s.rows + s.dim)))
			truth := make(linalg.Vector, s.dim)
			for j := range truth {
				truth[j] = rng.NormFloat64()
			}
			rows := make([]linalg.Vector, s.rows)
			y := make(linalg.Vector, s.rows)
			for i := range rows {
				x := make(linalg.Vector, s.dim)
				if s.hashed {
					for f := 0; f < 22; f++ {
						x[rng.Intn(s.dim)] += float64(1 - 2*rng.Intn(2))
					}
					y[i] = 1 / (1 + math.Exp(-x.Dot(truth)))
				} else {
					for j := range x[:s.dim-1] {
						x[j] = rng.NormFloat64()
					}
					x[s.dim-1] = 1
					y[i] = x.Dot(truth) + 0.3*rng.NormFloat64()
				}
				rows[i] = x
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := FitLinear(rows, y, FitOptions{Ridge: 1e-8}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
