//go:build !race

package binary

import (
	"testing"

	"datamarket/api"
)

// These tests guard the codec's zero-allocation steady state: with a
// reused append buffer and a warmed Decoder, encoding and decoding the
// hot batch frames allocates nothing per call. (Skipped under -race,
// whose instrumentation perturbs allocation counts.)

// batchOf builds a k-round single-stream batch at the given dimension.
func batchOf(k, dim int) *api.BatchPriceRequest {
	rounds := make([]api.BatchPriceRound, k)
	for i := range rounds {
		f := make([]float64, dim)
		for j := range f {
			f[j] = float64(i*dim+j) / 16
		}
		v := float64(i)
		rounds[i] = api.BatchPriceRound{Features: f, Reserve: 0.25, Valuation: &v}
	}
	return &api.BatchPriceRequest{Rounds: rounds}
}

func TestEncodeBatchZeroAllocs(t *testing.T) {
	req := batchOf(64, 16)
	buf, err := Append(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if buf, err = Append(buf[:0], req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state batch encode allocates %.1f times per call, want 0", allocs)
	}
}

func TestDecodeBatchZeroAllocs(t *testing.T) {
	frame, err := Append(nil, batchOf(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	var d Decoder
	if _, err := d.PriceBatch(frame); err != nil {
		t.Fatal(err) // warm the scratch
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.PriceBatch(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state batch decode allocates %.1f times per call, want 0", allocs)
	}
}

func TestDecodeMultiBatchZeroAllocs(t *testing.T) {
	// A Flusher-shaped workload: the same streams every batch. Stream-ID
	// table entries are reused across decodes, so the steady state is
	// allocation-free here too.
	rounds := make([]api.MultiBatchRound, 32)
	for i := range rounds {
		v := float64(i)
		rounds[i] = api.MultiBatchRound{
			StreamID: []string{"alpha", "beta", "gamma"}[i%3],
			Features: []float64{1, 2, 3, 4}, Reserve: 0.5, Valuation: &v,
		}
	}
	frame, err := Append(nil, &api.MultiBatchPriceRequest{Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	var d Decoder
	if _, err := d.MultiBatch(frame); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.MultiBatch(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state multi-batch decode allocates %.1f times per call, want 0", allocs)
	}
}

func TestEncodeBatchResponseZeroAllocs(t *testing.T) {
	results := make([]api.BatchRoundResult, 64)
	acc := true
	for i := range results {
		results[i] = api.BatchRoundResult{PriceResponse: api.PriceResponse{
			Price: float64(i), Decision: "exploratory", Lower: 0, Upper: float64(i) + 1,
			Accepted: &acc,
		}}
	}
	resp := &api.BatchPriceResponse{Results: results}
	buf, err := Append(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if buf, err = Append(buf[:0], resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state batch response encode allocates %.1f times per call, want 0", allocs)
	}
}

func TestDecodeBatchResponseZeroAllocs(t *testing.T) {
	results := make([]api.BatchRoundResult, 64)
	for i := range results {
		results[i] = api.BatchRoundResult{PriceResponse: api.PriceResponse{
			Price: float64(i), Decision: "conservative", Upper: float64(i) + 1,
		}}
	}
	frame, err := Append(nil, &api.BatchPriceResponse{Results: results})
	if err != nil {
		t.Fatal(err)
	}
	var d Decoder
	if _, err := d.BatchResponse(frame); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.BatchResponse(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state batch response decode allocates %.1f times per call, want 0", allocs)
	}
}

func TestSinglePriceCodecZeroAllocs(t *testing.T) {
	v := 2.5
	req := &api.PriceRequest{Features: []float64{1, 2, 3, 4}, Reserve: 0.5, Valuation: &v}
	buf, err := Append(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	var d Decoder
	if _, err := d.PriceRequest(buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf, _ = Append(buf[:0], req)
		if _, err := d.PriceRequest(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state single-round encode+decode allocates %.1f times per call, want 0", allocs)
	}
}

func TestTradeBatchCodecZeroAllocs(t *testing.T) {
	// A ratings-shaped batch: 64 sparse trades of 32 owners out of 4,000.
	trades := make([]api.TradeRequest, 64)
	for i := range trades {
		sup := make([]int, 32)
		w := make([]float64, 32)
		for k := range sup {
			sup[k] = (i + 125*k) % 4000
			w[k] = float64(k) + 0.5
		}
		trades[i] = api.TradeRequest{Owners: 4000, Support: sup, Weights: w, NoiseVariance: 1, Valuation: 2}
	}
	req := &api.TradeBatchRequest{Trades: trades}
	buf, err := Append(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	var d Decoder
	if _, err := d.TradeBatch(buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if buf, err = Append(buf[:0], req); err != nil {
			t.Fatal(err)
		}
		if _, err := d.TradeBatch(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state sparse trade batch encode+decode allocates %.1f times per call, want 0", allocs)
	}
}
