package server

// Hosted-market serving benchmarks on a 10k-owner market traded with
// 64-support queries: single dense trades over JSON, and batches over
// the binary codec in the sparse form the SDK sends.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"

	"datamarket/api/binary"
	"datamarket/internal/randx"
)

const (
	benchMarketOwners  = 10000
	benchMarketSupport = 64
)

// benchMarketServer spins up a server hosting one market with the
// headline population.
func benchMarketServer(b *testing.B) *httptest.Server {
	b.Helper()
	srv := NewServer(nil)
	owners := make([]OwnerSpec, benchMarketOwners)
	vals := randx.New(81).UniformVector(benchMarketOwners, 1, 5)
	for i := range owners {
		owners[i] = OwnerSpec{
			Value: vals[i], Range: 4,
			Contract: ContractSpec{Type: "tanh", Rho: 1, Eta: 10},
		}
	}
	if _, err := srv.markets.Create(CreateMarketRequest{
		ID: "bench", Owners: owners, Seed: 3, Horizon: 1 << 20,
	}); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	return ts
}

// benchMarketTrade draws a dense 64-support trade over the bench market.
func benchMarketTrade(r *randx.RNG) TradeRequest {
	w := make([]float64, benchMarketOwners)
	for _, i := range r.Perm(benchMarketOwners)[:benchMarketSupport] {
		w[i] = r.Normal(0, 1)
	}
	return TradeRequest{Weights: w, NoiseVariance: 1, Valuation: r.Uniform(0, 10)}
}

// benchSparseTrades draws n 64-support trades over the bench market in
// the sparse form: ascending Support, with Weights aligned to it.
func benchSparseTrades(r *randx.RNG, n int) []TradeRequest {
	trades := make([]TradeRequest, n)
	for k := range trades {
		support := r.Perm(benchMarketOwners)[:benchMarketSupport]
		sort.Ints(support)
		w := make([]float64, len(support))
		for i := range w {
			w[i] = r.Normal(0, 1)
		}
		trades[k] = TradeRequest{
			Owners: benchMarketOwners, Support: support, Weights: w,
			NoiseVariance: 1, Valuation: r.Uniform(0, 10),
		}
	}
	return trades
}

// BenchmarkServerHTTPTrade measures single trades through the JSON edge
// — the pre-batch hosted-market serving pattern. The dense trade bodies
// are marshalled into a pool before the timer starts, so the loop times
// the round trip and the response decode, not the trades' generation.
func BenchmarkServerHTTPTrade(b *testing.B) {
	const poolSize = 256
	ts := benchMarketServer(b)
	r := randx.New(82)
	pool := make([][]byte, poolSize)
	for i := range pool {
		body, err := json.Marshal(benchMarketTrade(r))
		if err != nil {
			b.Fatal(err)
		}
		pool[i] = body
	}
	var worker atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		next := int(worker.Add(1))
		for pb.Next() {
			body := pool[next%poolSize]
			next++
			resp, err := http.Post(ts.URL+"/v1/markets/bench/trade",
				"application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				resp.Body.Close()
				return
			}
			var tr TradeResponse
			json.NewDecoder(resp.Body).Decode(&tr)
			resp.Body.Close()
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trades/s")
}

// BenchmarkServerHTTPTradeBatchBinary measures batched trades over the
// binary codec in the sparse form the SDK sends — the headline market
// serving path. The trades come from a pool built before the timer
// starts, so the loop times encode, the round trip and decode. ns/op is
// per BATCH; trades/s is the comparable metric.
func BenchmarkServerHTTPTradeBatchBinary(b *testing.B) {
	const poolSize = 1024
	for _, batch := range []int{16, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			ts := benchMarketServer(b)
			pool := benchSparseTrades(randx.New(83), poolSize)
			var worker atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				next := int(worker.Add(1)) * batch
				var (
					frame, scratch []byte
					dec            binary.Decoder
					tr             TradeBatchResponse
				)
				for pb.Next() {
					off := next % (poolSize - batch + 1)
					next += batch
					var err error
					frame, err = binary.Append(frame[:0], &TradeBatchRequest{Trades: pool[off : off+batch]})
					if err != nil {
						b.Error(err)
						return
					}
					var ok bool
					scratch, ok = benchBinaryPost(b, http.DefaultClient,
						ts.URL+"/v1/markets/bench/trade/batch", frame, scratch, &dec, &tr)
					if !ok {
						return
					}
					if len(tr.Results) != batch {
						b.Errorf("got %d results, want %d", len(tr.Results), batch)
						return
					}
					for _, res := range tr.Results {
						if res.Error != "" {
							b.Error(res.Error)
							return
						}
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)*float64(batch)/b.Elapsed().Seconds(), "trades/s")
		})
	}
}
