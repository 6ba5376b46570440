package market

// Benchmarks for the market fast path on a 10k-owner market queried
// with 64-owner support. They carry the batch_over_dense ≥10× bar:
// BenchmarkPrepareDenseReference's ns/op (the seed pipeline's dense
// prepare alone, a lower bound on its per-trade cost) over
// BenchmarkTradeBatch's ns per trade, which its trades/s metric gives.

import (
	"runtime"
	"testing"

	"datamarket/internal/feature"
	"datamarket/internal/linalg"
	"datamarket/internal/pricing"
	"datamarket/internal/privacy"
	"datamarket/internal/randx"
)

const (
	benchOwners  = 10000
	benchSupport = 64
	benchDim     = 10
)

func benchBroker(b *testing.B) *Broker {
	b.Helper()
	r := randx.New(71)
	contract, err := privacy.NewTanhContract(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	pop := make([]Owner, benchOwners)
	for i := range pop {
		pop[i] = Owner{ID: i, Value: r.Uniform(0.5, 5), Range: 1, Contract: contract}
	}
	mech, err := pricing.New(benchDim, 2*linalg.Vector{float64(benchDim)}.Norm2(),
		pricing.WithReserve(),
		pricing.WithThreshold(pricing.DefaultThreshold(benchDim, 1<<20, 0)))
	if err != nil {
		b.Fatal(err)
	}
	br, err := NewBroker(Config{
		Owners: pop, Mechanism: pricing.NewSync(mech), FeatureDim: benchDim,
		Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return br
}

func benchQuery(b *testing.B, r *randx.RNG) *privacy.LinearQuery {
	b.Helper()
	weights := make(linalg.Vector, benchOwners)
	for _, i := range r.Perm(benchOwners)[:benchSupport] {
		weights[i] = r.Normal(0, 1)
	}
	q, err := privacy.NewLinearQuery(weights, 1)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// BenchmarkPrepareDenseReference is the seed pipeline the sparse path
// replaced: dense leakages and compensations over all 10k owners, plus a
// clone-and-sort aggregation, per call.
func BenchmarkPrepareDenseReference(b *testing.B) {
	br := benchBroker(b)
	q := benchQuery(b, randx.New(72))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leak, err := q.Leakages(br.ranges)
		if err != nil {
			b.Fatal(err)
		}
		comps, err := privacy.Compensations(leak, br.contracts)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := feature.CompensationFeatures(comps, br.featureDim); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepareInto is the sparse zero-alloc fast path over the same
// market and query shape.
func BenchmarkPrepareInto(b *testing.B) {
	br := benchBroker(b)
	q := benchQuery(b, randx.New(72))
	ctx := new(QuoteContext)
	if err := br.PrepareInto(ctx, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.PrepareInto(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTradeSequential trades one query at a time — the pre-batch
// serving pattern: two lock handoffs per round.
func BenchmarkTradeSequential(b *testing.B) {
	br := benchBroker(b)
	r := randx.New(73)
	queries := make([]Query, 256)
	for i := range queries {
		queries[i] = Query{Q: benchQuery(b, r), Valuation: r.Uniform(0, 10)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := br.Trade(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTradeBatch trades 64-round batches: parallel prepare, one
// pricing lock, one books lock. ns/op is per BATCH; trades/s is the
// per-trade rate. ledger-B/trade is the heap the trades leave behind,
// after a forced GC, per trade: the ledger's cost, 40 bytes an entry,
// plus the unfilled rest of its last chunk, which short runs amortize
// over few trades.
func BenchmarkTradeBatch(b *testing.B) {
	const batch = 64
	br := benchBroker(b)
	r := randx.New(74)
	queries := make([]Query, batch)
	for i := range queries {
		queries[i] = Query{Q: benchQuery(b, r), Valuation: r.Uniform(0, 10)}
	}
	heap0 := liveHeap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range br.TradeBatchOutcomes(queries) {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "trades/s")
	b.ReportMetric((liveHeap()-heap0)/(float64(b.N)*batch), "ledger-B/trade")
	runtime.KeepAlive(br)
}

// liveHeap returns the bytes of live heap objects after a forced GC.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
