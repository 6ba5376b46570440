package client

import (
	"context"
	"math"
	"sync"
	"testing"

	"datamarket/api"
	"datamarket/internal/randx"
)

// TestHostedMarketEndToEnd drives the paper's full market scenario over
// HTTP through the SDK alone: create a market of data owners with tanh
// compensation contracts, settle batches of noisy linear queries from
// concurrent consumers, then audit the ledger, the per-owner payouts,
// and the market stats against each other. It runs once per codec, so
// over binary the concurrent consumers share the SDK's pooled sparse
// trade scratch. Run under -race in CI.
func TestHostedMarketEndToEnd(t *testing.T) {
	t.Run("json", func(t *testing.T) { testHostedMarketEndToEnd(t) })
	t.Run("binary", func(t *testing.T) { testHostedMarketEndToEnd(t, WithBinary()) })
}

func testHostedMarketEndToEnd(t *testing.T, opts ...Option) {
	const (
		owners    = 60
		consumers = 4
		batches   = 3
		batchSize = 32
	)
	_, c := newBroker(t, opts...)
	ctx := context.Background()

	ownerSpecs := make([]api.OwnerSpec, owners)
	vals := randx.New(21).UniformVector(owners, 1, 5)
	for i := range ownerSpecs {
		ownerSpecs[i] = api.OwnerSpec{
			Value: vals[i], Range: 4,
			Contract: api.ContractSpec{Type: "tanh", Rho: 1, Eta: 10},
		}
	}
	info, err := c.CreateMarket(ctx, api.CreateMarketRequest{
		ID: "movielens", Owners: ownerSpecs, Seed: 1,
		Horizon: consumers * batches * batchSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Owners != owners || info.FeatureDim != 10 {
		t.Fatalf("market info %+v", info)
	}

	// Concurrent consumers, each settling batches of random queries.
	var wg sync.WaitGroup
	for w := 0; w < consumers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := randx.NewStream(33, uint64(w))
			for b := 0; b < batches; b++ {
				trades := make([]api.TradeRequest, batchSize)
				for i := range trades {
					weights := make([]float64, owners)
					for j := range weights {
						if r.Float64() < 0.3 {
							weights[j] = r.Float64()
						}
					}
					weights[w] = 0.5 // never the all-zero query
					trades[i] = api.TradeRequest{
						Weights:       weights,
						NoiseVariance: 1 + r.Float64(),
						Valuation:     3 + 2*r.Float64(),
					}
				}
				results, err := c.TradeBatch(ctx, "movielens", trades)
				if err != nil {
					t.Errorf("consumer %d batch %d: %v", w, b, err)
					return
				}
				if len(results) != batchSize {
					t.Errorf("consumer %d: %d results", w, len(results))
					return
				}
				for i, res := range results {
					if res.Error != "" {
						t.Errorf("consumer %d trade %d: %s", w, i, res.Error)
					}
				}
			}
		}()
	}
	wg.Wait()

	// Audit: page the whole ledger through the SDK.
	total := consumers * batches * batchSize
	var entries []api.TradeResult
	for offset := 0; ; {
		page, err := c.Ledger(ctx, "movielens", offset, 50)
		if err != nil {
			t.Fatal(err)
		}
		if page.Total != total {
			t.Fatalf("ledger total %d, want %d", page.Total, total)
		}
		entries = append(entries, page.Entries...)
		offset += len(page.Entries)
		if offset >= page.Total {
			break
		}
	}
	if len(entries) != total {
		t.Fatalf("paged %d entries, want %d", len(entries), total)
	}

	var sold int
	var revenue, comp float64
	seen := make(map[int]bool, total)
	for _, tx := range entries {
		if seen[tx.Round] {
			t.Fatalf("round %d appears twice in the ledger", tx.Round)
		}
		seen[tx.Round] = true
		if tx.Sold {
			sold++
			revenue += tx.Revenue
			comp += tx.Compensation
			if tx.Profit < -1e-12 {
				t.Fatalf("round %d sold at a loss: %+v", tx.Round, tx)
			}
		}
	}
	if sold == 0 {
		t.Fatal("no trade settled")
	}

	stats, err := c.MarketStats(ctx, "movielens")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != total || stats.Sold != sold {
		t.Fatalf("stats %d/%d, ledger %d/%d", stats.Rounds, stats.Sold, total, sold)
	}
	if math.Abs(stats.Revenue-revenue) > 1e-6 || math.Abs(stats.Compensation-comp) > 1e-6 {
		t.Fatalf("stats revenue/comp %g/%g, ledger %g/%g", stats.Revenue, stats.Compensation, revenue, comp)
	}
	if stats.Profit < -1e-9 {
		t.Fatalf("market profit %g < 0 despite reserve constraint", stats.Profit)
	}

	payouts, err := c.Payouts(ctx, "movielens")
	if err != nil {
		t.Fatal(err)
	}
	if len(payouts.Payouts) != owners {
		t.Fatalf("%d payout rows, want %d", len(payouts.Payouts), owners)
	}
	if math.Abs(payouts.Total-comp) > 1e-6 {
		t.Fatalf("owners received %g, broker collected compensation %g", payouts.Total, comp)
	}
	for i, p := range payouts.Payouts {
		if p < 0 {
			t.Fatalf("owner %d has negative payout %g", i, p)
		}
	}

	// Streams and markets coexist behind one health surface.
	if _, err := c.CreateStream(ctx, api.CreateStreamRequest{ID: "side", Dim: 3}); err != nil {
		t.Fatal(err)
	}
	health, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Streams != 1 || health.Markets != 1 {
		t.Fatalf("health %+v, want 1 stream / 1 market", health)
	}
	if err := c.DeleteMarket(ctx, "movielens"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Market(ctx, "movielens"); !IsNotFound(err) {
		t.Fatalf("deleted market still resolves: %v", err)
	}
}

// TestStreamLifecycleViaSDK exercises the stream surface end to end
// through the SDK: create, batch price, snapshot, restore under a new
// ID, and agreement of the two streams on the next quote.
func TestStreamLifecycleViaSDK(t *testing.T) {
	_, c := newBroker(t)
	ctx := context.Background()
	r := randx.New(4)

	if _, err := c.CreateStream(ctx, api.CreateStreamRequest{
		ID: "seg", Dim: 3, Reserve: true, Horizon: 512,
	}); err != nil {
		t.Fatal(err)
	}
	theta := r.OnSphere(3)
	rounds := make([]api.BatchPriceRound, 256)
	for i := range rounds {
		x := r.OnSphere(3)
		v := math.Abs(x.Dot(theta))
		rounds[i] = api.BatchPriceRound{Features: x, Reserve: 0.25 * v, Valuation: &v}
	}
	results, err := c.PriceBatch(ctx, "seg", rounds)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Error != "" {
			t.Fatalf("round %d: %s", i, res.Error)
		}
	}

	env, err := c.Snapshot(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restore(ctx, "seg2", env); err != nil {
		t.Fatal(err)
	}
	probe := r.OnSphere(3)
	v := math.Abs(probe.Dot(theta))
	qa, err := c.Price(ctx, "seg", probe, 0.25*v, v)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := c.Price(ctx, "seg2", probe, 0.25*v, v)
	if err != nil {
		t.Fatal(err)
	}
	if qa.Price != qb.Price || qa.Decision != qb.Decision {
		t.Fatalf("restored stream disagrees: %+v vs %+v", qa, qb)
	}
	// The restored stream carried the regret aggregates too.
	sa, err := c.Stats(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := c.Stats(ctx, "seg2")
	if err != nil {
		t.Fatal(err)
	}
	if sa.Regret != sb.Regret {
		t.Fatalf("regret stats diverge: %+v vs %+v", sa.Regret, sb.Regret)
	}
}
