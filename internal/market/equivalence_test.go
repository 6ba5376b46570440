package market

// Equivalence suite for the sparse/pooled fast path: every result
// the optimized pipeline produces must be bit-identical to the dense seed
// pipeline (privacy.Leakages → privacy.Compensations →
// feature.CompensationFeatures), not merely close.

import (
	"sync"
	"testing"

	"datamarket/internal/feature"
	"datamarket/internal/linalg"
	"datamarket/internal/pricing"
	"datamarket/internal/privacy"
	"datamarket/internal/randx"
)

// densePrepare is the seed pipeline, kept verbatim as the reference:
// dense leakages over every owner, dense compensations, clone-and-sort
// partition aggregation.
func densePrepare(t *testing.T, b *Broker, q *privacy.LinearQuery) (leak, comps, x linalg.Vector, scale, reserve float64) {
	t.Helper()
	leak, err := q.Leakages(b.ranges)
	if err != nil {
		t.Fatal(err)
	}
	comps, err = privacy.Compensations(leak, b.contracts)
	if err != nil {
		t.Fatal(err)
	}
	x, scale, reserve, err = feature.CompensationFeatures(comps, b.featureDim)
	if err != nil {
		t.Fatal(err)
	}
	return leak, comps, x, scale, reserve
}

// sparseTestQuery draws a query whose support is a random subset of the
// owners (sometimes all, sometimes a handful, sometimes empty weights on
// explicit indices).
func sparseTestQuery(t *testing.T, r *randx.RNG, owners int) *privacy.LinearQuery {
	t.Helper()
	weights := make(linalg.Vector, owners)
	supportFrac := r.Float64()
	for i := range weights {
		if r.Float64() < supportFrac {
			weights[i] = r.Normal(0, 2)
		}
	}
	variance := []float64{0.01, 0.1, 1, 10, 100}[r.Intn(5)]
	q, err := privacy.NewLinearQuery(weights, variance)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestPrepareMatchesDenseSeedPipeline pins PrepareInto bit-for-bit
// against the dense reference: identical features, scale, and reserve,
// and support-aligned leakages/compensations that densify to the dense
// vectors exactly.
func TestPrepareMatchesDenseSeedPipeline(t *testing.T) {
	const owners = 200
	pop := testOwners(t, owners, 11)
	lc, err := privacy.NewLinearContract(0.7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pop {
		if i%3 == 0 {
			pop[i].Contract = lc
		}
		if i%7 == 0 {
			pop[i].Range = 0 // zero-sensitivity owners leak nothing
		}
	}
	b, err := NewBroker(Config{Owners: pop, Mechanism: pricing.NewSync(testMechanism(t, 6, 100)), FeatureDim: 6})
	if err != nil {
		t.Fatal(err)
	}
	r := randx.New(12)
	ctx := new(QuoteContext) // reused across trials to exercise scratch reuse
	for trial := 0; trial < 100; trial++ {
		q := sparseTestQuery(t, r, owners)
		leak, comps, x, scale, reserve := densePrepare(t, b, q)
		if err := b.PrepareInto(ctx, q); err != nil {
			t.Fatal(err)
		}
		if ctx.Scale != scale || ctx.Reserve != reserve {
			t.Fatalf("trial %d: scale/reserve (%v, %v) != dense (%v, %v)",
				trial, ctx.Scale, ctx.Reserve, scale, reserve)
		}
		for i := range x {
			if ctx.Features[i] != x[i] {
				t.Fatalf("trial %d feature %d: %v != dense %v", trial, i, ctx.Features[i], x[i])
			}
		}
		// Densify the support-aligned leakages/compensations and compare.
		k := 0
		for i := 0; i < owners; i++ {
			var sl, sc float64
			if k < len(ctx.Support) && ctx.Support[k] == i {
				sl, sc = ctx.Leakages[k], ctx.Compensations[k]
				k++
			}
			if sl != leak[i] || sc != comps[i] {
				t.Fatalf("trial %d owner %d: sparse (%v, %v) != dense (%v, %v)",
					trial, i, sl, sc, leak[i], comps[i])
			}
		}
	}
}

// TestLedgerReturnsDefensiveCopy pins the Ledger() footgun fix: mutating
// the returned slice must not corrupt the broker's books.
func TestLedgerReturnsDefensiveCopy(t *testing.T) {
	pop := testOwners(t, 10, 31)
	b, err := NewBroker(Config{
		Owners: pop, Mechanism: pricing.NewSync(testMechanism(t, 3, 50)),
		FeatureDim: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := randx.New(32)
	for i := 0; i < 5; i++ {
		if _, err := b.Trade(Query{Q: sparseTestQuery(t, r, 10), Valuation: 5}); err != nil {
			t.Fatal(err)
		}
	}
	got := b.Ledger()
	want := got[2]
	got[2] = Transaction{Round: -1}
	if again := b.Ledger(); again[2] != want {
		t.Fatalf("mutating Ledger() result corrupted the books: %+v", again[2])
	}
}

// TestConcurrentBatchesKeepBooksConsistent hammers TradeBatchOutcomes
// from several goroutines (run under -race) and checks the invariants
// that survive nondeterministic interleaving: every round lands in the
// ledger exactly once with a unique round number, totals reconcile, and
// the reserve constraint holds.
func TestConcurrentBatchesKeepBooksConsistent(t *testing.T) {
	const (
		owners  = 80
		batches = 6
		perB    = 40
	)
	pop := testOwners(t, owners, 41)
	b, err := NewBroker(Config{
		Owners: pop, Mechanism: pricing.NewSync(testMechanism(t, 4, batches*perB)),
		FeatureDim: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < batches; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := randx.NewStream(42, uint64(g))
			queries := make([]Query, perB)
			for i := range queries {
				queries[i] = Query{Q: sparseTestQuery(t, r, owners), Valuation: r.Uniform(0, 10)}
			}
			for _, o := range b.TradeBatchOutcomes(queries) {
				if o.Err != nil {
					t.Error(o.Err)
				}
			}
		}(g)
	}
	wg.Wait()
	ledger := b.Ledger()
	if len(ledger) != batches*perB {
		t.Fatalf("ledger has %d rounds, want %d", len(ledger), batches*perB)
	}
	seen := make(map[int]bool, len(ledger))
	var revenue, comp float64
	for _, tx := range ledger {
		if seen[tx.Round] {
			t.Fatalf("duplicate round %d", tx.Round)
		}
		seen[tx.Round] = true
		if tx.Sold {
			revenue += tx.Revenue
			comp += tx.Compensation
			if tx.Profit < -1e-9 {
				t.Fatalf("reserve constraint violated: %+v", tx)
			}
		}
	}
	st := b.Stats()
	if st.Revenue != revenue || st.Compensation != comp {
		t.Fatalf("totals (%v, %v) disagree with ledger (%v, %v)",
			st.Revenue, st.Compensation, revenue, comp)
	}
	var paid float64
	for _, p := range b.Payouts() {
		paid += p
	}
	if diff := paid - comp; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("owner payouts %v != total compensation %v", paid, comp)
	}
}
