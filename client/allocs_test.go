//go:build !race

package client

import (
	"testing"

	"datamarket/api"
)

// TestTradeBatchSparsifyZeroAllocs pins that, once its pooled scratch
// has grown, rewriting a 64-trade dense batch into the sparse form
// allocates nothing. (Skipped under -race, whose instrumentation
// perturbs allocation counts.)
func TestTradeBatchSparsifyZeroAllocs(t *testing.T) {
	trades := make([]api.TradeRequest, 64)
	for i := range trades {
		w := make([]float64, 4000)
		for k := 0; k < 32; k++ {
			w[(i+125*k)%4000] = float64(k) + 0.5
		}
		trades[i] = api.TradeRequest{Weights: w, NoiseVariance: 1, Valuation: 2}
	}
	var b sparseBatch
	b.sparsify(trades) // warm-up grows the scratch
	allocs := testing.AllocsPerRun(100, func() {
		if got := b.sparsify(trades); len(got[63].Support) != 32 {
			t.Fatalf("trade 63 has support %v, want 32 owners", got[63].Support)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state sparsify allocates %.1f times per call, want 0", allocs)
	}
}
