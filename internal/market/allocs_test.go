//go:build !race

package market

// Steady-state allocation guards for the fast path. These use
// testing.AllocsPerRun, whose counts are perturbed by the race
// detector's instrumentation, so the file is excluded from -race runs
// (the equivalence suite still covers the same code paths there).

import (
	"sort"
	"testing"

	"datamarket/internal/linalg"
	"datamarket/internal/pricing"
	"datamarket/internal/privacy"
	"datamarket/internal/randx"
)

// TestPrepareIntoZeroAllocs pins the core promise of the pooled fast
// path: after warmup, PrepareInto allocates nothing.
func TestPrepareIntoZeroAllocs(t *testing.T) {
	const owners = 1000
	pop := testOwners(t, owners, 51)
	b, err := NewBroker(Config{
		Owners: pop, Mechanism: pricing.NewSync(testMechanism(t, 8, 100)), FeatureDim: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := randx.New(52)
	weights := make(linalg.Vector, owners)
	for _, i := range r.Perm(owners)[:64] {
		weights[i] = r.Normal(0, 1)
	}
	q, err := privacy.NewLinearQuery(weights, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := new(QuoteContext)
	if err := b.PrepareInto(ctx, q); err != nil { // warmup sizes the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := b.PrepareInto(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PrepareInto allocates %v times per run in steady state, want 0", allocs)
	}
}

// TestSettleBatchZeroAllocs pins the settle side: once the ledger's
// first chunk exists, settling a priced batch touches the books without
// allocating until that chunk fills.
func TestSettleBatchZeroAllocs(t *testing.T) {
	const (
		owners = 500
		batch  = 16
		runs   = 100
	)
	pop := testOwners(t, owners, 61)
	b, err := NewBroker(Config{
		Owners: pop, Mechanism: pricing.NewSync(testMechanism(t, 6, 100000)),
		FeatureDim: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := randx.New(62)
	queries := make([]Query, batch)
	ctxs := make([]*QuoteContext, batch)
	idx := make([]int, batch)
	priced := make([]pricing.BatchOutcome, batch)
	out := make([]TradeOutcome, batch)
	for i := range queries {
		weights := make(linalg.Vector, owners)
		for _, j := range r.Perm(owners)[:32] {
			weights[j] = r.Normal(0, 1)
		}
		q, err := privacy.NewLinearQuery(weights, 1)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = Query{Q: q, Valuation: 5}
		ctx := new(QuoteContext)
		if err := b.PrepareInto(ctx, q); err != nil {
			t.Fatal(err)
		}
		ctxs[i] = ctx
		idx[i] = i
		priced[i] = pricing.BatchOutcome{
			Quote:    pricing.Quote{Price: ctx.Reserve, Decision: pricing.DecisionExploratory},
			Accepted: true,
		}
	}
	b.settleBatch(queries, ctxs, idx, priced, out) // warmup
	for _, o := range out {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		b.settleBatch(queries, ctxs, idx, priced, out)
	})
	if allocs != 0 {
		t.Fatalf("settleBatch allocates %v times per run in steady state, want 0", allocs)
	}
}

// TestTradeBatchPerTradeZeroAllocs pins that a batch's allocations do
// not depend on whether its queries were seen before: 64-trade batches
// cycle through 1,024 distinct 40-hot queries over 4,000 owners, and
// every query prepares into a pooled context. What remains is the
// batch's own bookkeeping (the outcome, context, round and index slices
// and the prepare workers): a fixed handful per batch, none per trade,
// plus the ledger's next chunk once every 64 batches.
func TestTradeBatchPerTradeZeroAllocs(t *testing.T) {
	const (
		owners   = 4000
		distinct = 1024
		hot      = 40
		batch    = 64
		runs     = 100
	)
	pop := testOwners(t, owners, 71)
	b, err := NewBroker(Config{
		Owners: pop, Mechanism: pricing.NewSync(testMechanism(t, 8, 1<<20)),
		FeatureDim: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := randx.New(72)
	pool := make([]Query, distinct)
	for i := range pool {
		idx := r.Perm(owners)[:hot]
		sort.Ints(idx)
		q, err := privacy.NewSparseLinearQuery(owners, idx, r.NormalVector(hot, 1), 1)
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = Query{Q: q, Valuation: r.Uniform(0, 10)}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for _, o := range b.TradeBatchOutcomes(pool[next : next+batch]) {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
		}
		next = (next + batch) % distinct
	})
	if allocs >= batch {
		t.Fatalf("TradeBatchOutcomes allocates %v times per %d-trade batch, want fewer than one per trade", allocs, batch)
	}
}
