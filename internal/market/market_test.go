package market

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"datamarket/internal/linalg"
	"datamarket/internal/pricing"
	"datamarket/internal/privacy"
	"datamarket/internal/randx"
)

// tradeBatch trades queries through TradeBatchOutcomes and returns the
// settled transactions in query order, with the failures joined.
func tradeBatch(b *Broker, queries []Query) ([]Transaction, error) {
	var txs []Transaction
	var errs []error
	for i, o := range b.TradeBatchOutcomes(queries) {
		if o.Err != nil {
			errs = append(errs, fmt.Errorf("query %d: %w", i, o.Err))
			continue
		}
		txs = append(txs, o.Tx)
	}
	return txs, errors.Join(errs...)
}

// testOwners builds a small owner population with tanh contracts.
func testOwners(t *testing.T, n int, seed uint64) []Owner {
	t.Helper()
	r := randx.New(seed)
	contract, err := privacy.NewTanhContract(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	owners := make([]Owner, n)
	for i := range owners {
		owners[i] = Owner{
			ID:       i,
			Value:    r.Uniform(0.5, 5),
			Range:    1,
			Contract: contract,
		}
	}
	return owners
}

func testMechanism(t *testing.T, n int, T int) *pricing.Mechanism {
	t.Helper()
	m, err := pricing.New(n, 2*math.Sqrt(float64(n)),
		pricing.WithReserve(),
		pricing.WithThreshold(pricing.DefaultThreshold(n, T, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewBrokerValidation(t *testing.T) {
	owners := testOwners(t, 10, 1)
	mech := pricing.NewSync(testMechanism(t, 4, 100))
	if _, err := NewBroker(Config{Mechanism: mech, FeatureDim: 4}); err == nil {
		t.Fatal("expected no-owners error")
	}
	if _, err := NewBroker(Config{Owners: owners, FeatureDim: 4}); err == nil {
		t.Fatal("expected no-mechanism error")
	}
	if _, err := NewBroker(Config{Owners: owners, Mechanism: mech, FeatureDim: 0}); err == nil {
		t.Fatal("expected feature-dim error")
	}
	if _, err := NewBroker(Config{Owners: owners, Mechanism: mech, FeatureDim: 99}); err == nil {
		t.Fatal("expected feature-dim too large error")
	}
	bad := testOwners(t, 2, 2)
	bad[1].Range = -1
	if _, err := NewBroker(Config{Owners: bad, Mechanism: mech, FeatureDim: 1}); err == nil {
		t.Fatal("expected negative-range error")
	}
	bad2 := testOwners(t, 2, 3)
	bad2[0].Contract = nil
	if _, err := NewBroker(Config{Owners: bad2, Mechanism: mech, FeatureDim: 1}); err == nil {
		t.Fatal("expected nil-contract error")
	}
	b, err := NewBroker(Config{Owners: owners, Mechanism: mech, FeatureDim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if b.Owners() != 10 || b.FeatureDim() != 4 {
		t.Fatalf("accessors: %d %d", b.Owners(), b.FeatureDim())
	}
}

func TestPreparePipeline(t *testing.T) {
	owners := testOwners(t, 20, 4)
	mech := pricing.NewSync(testMechanism(t, 5, 100))
	b, err := NewBroker(Config{Owners: owners, Mechanism: mech, FeatureDim: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := randx.New(5)
	q, err := privacy.NewLinearQuery(r.NormalVector(20, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := b.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx.Features) != 5 {
		t.Fatalf("feature dim %d", len(ctx.Features))
	}
	if math.Abs(ctx.Features.Norm2()-1) > 1e-9 {
		t.Fatalf("features not normalized: %v", ctx.Features.Norm2())
	}
	if math.Abs(ctx.Reserve-ctx.Features.Sum()) > 1e-12 {
		t.Fatalf("reserve %v != feature sum %v", ctx.Reserve, ctx.Features.Sum())
	}
	// Compensation ordering: features are sums of sorted compensations, so
	// they must be non-decreasing across partitions.
	for i := 1; i < len(ctx.Features); i++ {
		if ctx.Features[i] < ctx.Features[i-1]-1e-12 {
			t.Fatalf("aggregated features not sorted: %v", ctx.Features)
		}
	}
	if ctx.Leakages.Min() < 0 || ctx.Compensations.Min() < 0 {
		t.Fatal("negative leakage or compensation")
	}
}

func TestTradeFullLoop(t *testing.T) {
	const (
		owners = 50
		n      = 5
		T      = 2000
	)
	ownerPop := testOwners(t, owners, 6)
	mech := pricing.NewSync(testMechanism(t, n, T))
	b, err := NewBroker(Config{Owners: ownerPop, Mechanism: mech, FeatureDim: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r0 := randx.New(8)
	theta := r0.NormalVector(n, 1)
	for i := range theta {
		theta[i] = math.Abs(theta[i])
	}
	theta.Normalize()
	theta.Scale(math.Sqrt(2 * float64(n)))
	cm, err := NewConsumerModel(ConsumerConfig{
		Owners: ownerPop, FeatureDim: n, Theta: theta,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(9)
	var sold int
	for i := 0; i < T; i++ {
		q, err := cm.NextQuery(rng)
		if err != nil {
			t.Fatal(err)
		}
		tx, err := b.Trade(q)
		if err != nil {
			t.Fatal(err)
		}
		if tx.Sold {
			sold++
			if tx.Posted < tx.Reserve-1e-9 {
				t.Fatalf("round %d: sold below reserve: %v < %v", i, tx.Posted, tx.Reserve)
			}
			if tx.Profit < -1e-9 {
				t.Fatalf("round %d: negative profit %v", i, tx.Profit)
			}
		}
		if tx.Regret < 0 {
			t.Fatalf("round %d: negative regret", i)
		}
	}
	if sold == 0 {
		t.Fatal("no sales in the whole run")
	}
	if len(b.Ledger()) != T {
		t.Fatalf("ledger has %d entries", len(b.Ledger()))
	}
	if b.TotalProfit() < 0 {
		t.Fatalf("negative total profit %v", b.TotalProfit())
	}
	if b.TotalRevenue() <= 0 {
		t.Fatalf("no revenue: %v", b.TotalRevenue())
	}
	// The regret ratio must be modest once the mechanism converges.
	if ratio := b.Stats().RegretRatio; ratio > 0.35 {
		t.Fatalf("regret ratio %v too high", ratio)
	}
	// Owner payouts sum to total compensation paid.
	var payoutSum float64
	for i := 0; i < owners; i++ {
		p, err := b.OwnerPayout(i)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0 {
			t.Fatalf("owner %d negative payout", i)
		}
		payoutSum += p
	}
	var compSum float64
	for _, tx := range b.Ledger() {
		compSum += tx.Compensation
	}
	if math.Abs(payoutSum-compSum) > 1e-6*math.Max(1, compSum) {
		t.Fatalf("payouts %v != compensations %v", payoutSum, compSum)
	}
	if _, err := b.OwnerPayout(-1); err == nil {
		t.Fatal("expected payout range error")
	}
}

func TestConsumerModelValidation(t *testing.T) {
	owners := testOwners(t, 5, 10)
	if _, err := NewConsumerModel(ConsumerConfig{FeatureDim: 1, Theta: linalg.VectorOf(1)}); err == nil {
		t.Fatal("expected owners error")
	}
	if _, err := NewConsumerModel(ConsumerConfig{Owners: owners, FeatureDim: 0, Theta: nil}); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := NewConsumerModel(ConsumerConfig{Owners: owners, FeatureDim: 2, Theta: linalg.VectorOf(1)}); err == nil {
		t.Fatal("expected theta length error")
	}
	cm, err := NewConsumerModel(ConsumerConfig{Owners: owners, FeatureDim: 2, Theta: linalg.VectorOf(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !cm.Theta().Equal(linalg.VectorOf(1, 1), 0) {
		t.Fatal("Theta accessor wrong")
	}
}

func TestConsumerQueriesAreDiverse(t *testing.T) {
	owners := testOwners(t, 30, 11)
	theta := linalg.Ones(3)
	for _, uniform := range []bool{false, true} {
		cm, err := NewConsumerModel(ConsumerConfig{
			Owners: owners, FeatureDim: 3, Theta: theta, UniformWeights: uniform,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := randx.New(12)
		variances := map[float64]bool{}
		for i := 0; i < 200; i++ {
			q, err := cm.NextQuery(rng)
			if err != nil {
				t.Fatal(err)
			}
			variances[q.Q.NoiseVariance] = true
			if q.Q.Owners() != 30 {
				t.Fatalf("query over %d owners", q.Q.Owners())
			}
			if uniform && q.Q.SupportWeights().NormInf() > 1 {
				t.Fatalf("uniform weights out of range: %v", q.Q.SupportWeights().NormInf())
			}
			// Valuations derive from unit features with positive theta.
			if q.Valuation < 0 || q.Valuation > theta.Norm2()+1e-9 {
				t.Fatalf("valuation %v out of range", q.Valuation)
			}
		}
		// The noise-variance grid has 9 levels; a 200-draw sample must
		// hit most of them.
		if len(variances) < 5 {
			t.Fatalf("variance diversity too low: %d levels", len(variances))
		}
	}
}

func TestConsumerNoiseInjection(t *testing.T) {
	owners := testOwners(t, 10, 13)
	theta := linalg.Ones(2)
	noise, _ := randx.NewSubGaussianNoise(randx.NoiseNormal, 0.1)
	cm, err := NewConsumerModel(ConsumerConfig{
		Owners: owners, FeatureDim: 2, Theta: theta, Noise: noise,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With noise, repeated draws of structurally similar queries produce
	// valuations spread around the deterministic value.
	rng := randx.New(14)
	var vals []float64
	for i := 0; i < 200; i++ {
		q, err := cm.NextQuery(rng)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, q.Valuation)
	}
	var outside int
	for _, v := range vals {
		if v < 0 || v > theta.Norm2() {
			outside++
		}
	}
	if outside == 0 {
		t.Fatal("noise appears to have no effect on valuations")
	}
}

// TestConsumerRoundMatchesBroker checks that NextRound draws the stream
// NextQuery draws and returns the features and reserve the broker
// derives from the same query.
func TestConsumerRoundMatchesBroker(t *testing.T) {
	const n, T = 4, 50
	owners := testOwners(t, 40, 15)
	theta := linalg.Ones(n)
	cm, err := NewConsumerModel(ConsumerConfig{Owners: owners, FeatureDim: n, Theta: theta})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(Config{
		Owners: owners, Mechanism: pricing.NewSync(testMechanism(t, n, T)), FeatureDim: n, Seed: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	rngRound, rngQuery := randx.New(17), randx.New(17)
	for i := 0; i < T; i++ {
		q, x, reserve, err := cm.NextRound(rngRound)
		if err != nil {
			t.Fatal(err)
		}
		same, err := cm.NextQuery(rngQuery)
		if err != nil {
			t.Fatal(err)
		}
		if same.Valuation != q.Valuation || same.Q.NoiseVariance != q.Q.NoiseVariance {
			t.Fatalf("round %d: NextQuery drew %+v, NextRound %+v", i, same, q)
		}
		if v := x.Dot(theta); v != q.Valuation {
			t.Fatalf("round %d: valuation %v, want xᵀθ = %v", i, q.Valuation, v)
		}
		tx, err := b.Trade(q)
		if err != nil {
			t.Fatal(err)
		}
		if tx.Reserve != reserve {
			t.Fatalf("round %d: broker reserve %v, NextRound reserve %v", i, tx.Reserve, reserve)
		}
	}
}

// TestTradeConcurrent drives one broker from many goroutines through a
// SyncPoster-wrapped mechanism — the server-hosted configuration. Run
// with -race; it checks that the ledger, payouts, and mechanism counters
// stay consistent under concurrent trades.
func TestTradeConcurrent(t *testing.T) {
	const (
		owners  = 30
		n       = 4
		workers = 8
		perW    = 150
	)
	ownerPop := testOwners(t, owners, 20)
	mech := testMechanism(t, n, workers*perW)
	b, err := NewBroker(Config{
		Owners:     ownerPop,
		Mechanism:  pricing.NewSync(mech),
		FeatureDim: n,
		Seed:       21,
	})
	if err != nil {
		t.Fatal(err)
	}
	r0 := randx.New(22)
	theta := r0.NormalVector(n, 1)
	for i := range theta {
		theta[i] = math.Abs(theta[i])
	}
	theta.Normalize()
	theta.Scale(math.Sqrt(2 * float64(n)))
	cm, err := NewConsumerModel(ConsumerConfig{
		Owners: ownerPop, FeatureDim: n, Theta: theta,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-draw the queries: the consumer model RNG is not concurrent.
	rng := randx.New(23)
	queries := make([]Query, workers*perW)
	for i := range queries {
		q, err := cm.NextQuery(rng)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * perW; i < (w+1)*perW; i++ {
				tx, err := b.Trade(queries[i])
				if err != nil {
					errs <- err
					return
				}
				if tx.Sold && tx.Profit < -1e-9 {
					errs <- fmt.Errorf("round %d: negative profit %v", tx.Round, tx.Profit)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := len(b.Ledger()); got != workers*perW {
		t.Fatalf("ledger has %d entries, want %d", got, workers*perW)
	}
	c := mech.Counters()
	if c.Rounds != workers*perW {
		t.Fatalf("mechanism saw %d rounds, want %d", c.Rounds, workers*perW)
	}
	if c.Accepts+c.Rejects+c.Skips != c.Rounds {
		t.Fatalf("inconsistent counters under concurrency: %+v", c)
	}
	// Every ledger round index appears exactly once.
	seen := make([]bool, workers*perW+1)
	for _, tx := range b.Ledger() {
		if tx.Round < 1 || tx.Round > workers*perW || seen[tx.Round] {
			t.Fatalf("bad or duplicate round index %d", tx.Round)
		}
		seen[tx.Round] = true
	}
	if b.TotalProfit() < -1e-9 {
		t.Fatalf("negative total profit %v", b.TotalProfit())
	}
}

// TestSettleFailingAnswerLeavesBooksUntouched is the regression test for
// the settlement-ordering bug: when the query's answer fails after the
// consumer accepted, the broker must not have mutated any payout state —
// previously the owner payouts were credited before the answer was
// computed, leaving money on the books with no ledger entry behind it.
func TestSettleFailingAnswerLeavesBooksUntouched(t *testing.T) {
	ownerPop := testOwners(t, 10, 21)
	mech := testMechanism(t, 3, 100)
	b, err := NewBroker(Config{Owners: ownerPop, Mechanism: pricing.NewSync(mech), FeatureDim: 3})
	if err != nil {
		t.Fatal(err)
	}
	good, err := privacy.NewLinearQuery(randx.New(22).NormalVector(10, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := b.Prepare(good)
	if err != nil {
		t.Fatal(err)
	}
	// A query over the wrong owner count reaches settle only through this
	// direct call (Prepare would reject it), standing in for any answer
	// failure that strikes after the buyer accepted.
	broken, err := privacy.NewLinearQuery(randx.New(23).NormalVector(7, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	quote := pricing.Quote{Price: ctx.Reserve + 1, Decision: pricing.DecisionExploratory}
	if _, err := b.settle(Query{Q: broken, Valuation: 10}, ctx, quote, true); err == nil {
		t.Fatal("settle with a failing answer did not error")
	}
	for i := range ownerPop {
		p, err := b.OwnerPayout(i)
		if err != nil {
			t.Fatal(err)
		}
		if p != 0 {
			t.Fatalf("owner %d was paid %v by a failed settlement", i, p)
		}
	}
	if len(b.Ledger()) != 0 {
		t.Fatalf("failed settlement left %d ledger entries", len(b.Ledger()))
	}
	if s := b.Stats(); s.CumulativeValue != 0 {
		t.Fatalf("failed settlement recorded regret: %+v", s)
	}
}

// TestTradeBatchMatchesSequentialTrades checks that batch trades on a
// batch-capable mechanism produce exactly the ledger that the same query
// sequence produces through per-round Trade calls.
func TestTradeBatchMatchesSequentialTrades(t *testing.T) {
	const owners, n, T = 30, 4, 300
	newBroker := func() (*Broker, *ConsumerModel, *randx.RNG) {
		t.Helper()
		ownerPop := testOwners(t, owners, 31)
		b, err := NewBroker(Config{
			Owners: ownerPop, Mechanism: pricing.NewSync(testMechanism(t, n, T)),
			FeatureDim: n, Seed: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		theta := randx.New(33).NormalVector(n, 1)
		for i := range theta {
			theta[i] = math.Abs(theta[i])
		}
		theta.Normalize()
		theta.Scale(math.Sqrt(2 * float64(n)))
		cm, err := NewConsumerModel(ConsumerConfig{Owners: ownerPop, FeatureDim: n, Theta: theta})
		if err != nil {
			t.Fatal(err)
		}
		return b, cm, randx.New(34)
	}

	bSeq, cmSeq, rngSeq := newBroker()
	seqTxs := make([]Transaction, 0, T)
	for i := 0; i < T; i++ {
		q, err := cmSeq.NextQuery(rngSeq)
		if err != nil {
			t.Fatal(err)
		}
		tx, err := bSeq.Trade(q)
		if err != nil {
			t.Fatal(err)
		}
		seqTxs = append(seqTxs, tx)
	}

	bBatch, cmBatch, rngBatch := newBroker()
	queries := make([]Query, T)
	for i := range queries {
		q, err := cmBatch.NextQuery(rngBatch)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	var batchTxs []Transaction
	for lo := 0; lo < T; lo += 64 {
		hi := lo + 64
		if hi > T {
			hi = T
		}
		txs, err := tradeBatch(bBatch, queries[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		batchTxs = append(batchTxs, txs...)
	}

	if len(batchTxs) != len(seqTxs) {
		t.Fatalf("batch produced %d transactions, sequential %d", len(batchTxs), len(seqTxs))
	}
	for i := range seqTxs {
		if batchTxs[i] != seqTxs[i] {
			t.Fatalf("transaction %d diverged:\nbatch      %+v\nsequential %+v", i, batchTxs[i], seqTxs[i])
		}
	}
	for i := 0; i < owners; i++ {
		ps, _ := bSeq.OwnerPayout(i)
		pb, _ := bBatch.OwnerPayout(i)
		if ps != pb {
			t.Fatalf("owner %d payout diverged: %v vs %v", i, pb, ps)
		}
	}
}

// TestTradeBatchPartialFailure pins the failure semantics of batch trades:
// a query that fails to prepare mid-batch leaves no ledger entry, every
// other query still trades, and the joined error names the failure.
func TestTradeBatchPartialFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		mech func() *pricing.SyncPoster
	}{
		{"batch-poster", func() *pricing.SyncPoster { return pricing.NewSync(testMechanism(t, 2, 100)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ownerPop := testOwners(t, 8, 51)
			b, err := NewBroker(Config{Owners: ownerPop, Mechanism: tc.mech(), FeatureDim: 2, Seed: 52})
			if err != nil {
				t.Fatal(err)
			}
			good1, err := privacy.NewLinearQuery(randx.New(53).NormalVector(8, 1), 1)
			if err != nil {
				t.Fatal(err)
			}
			bad, err := privacy.NewLinearQuery(randx.New(54).NormalVector(5, 1), 1) // wrong owner count
			if err != nil {
				t.Fatal(err)
			}
			good2, err := privacy.NewLinearQuery(randx.New(55).NormalVector(8, 1), 1)
			if err != nil {
				t.Fatal(err)
			}
			txs, err := tradeBatch(b, []Query{
				{Q: good1, Valuation: 5},
				{Q: bad, Valuation: 5},
				{Q: good2, Valuation: 5},
			})
			if err == nil {
				t.Fatal("batch with a failing query returned no error")
			}
			if len(txs) != 2 {
				t.Fatalf("got %d transactions, want 2 (failed query skipped)", len(txs))
			}
			if len(b.Ledger()) != 2 {
				t.Fatalf("ledger has %d entries, want 2", len(b.Ledger()))
			}
		})
	}
}

// TestBrokerHostsEveryFamily drives the broker with a poster of each
// hosted pricing family behind SyncPoster, through both Trade and
// TradeBatchOutcomes: the broker is mechanism-agnostic and takes any
// family through SyncPoster.
func TestBrokerHostsEveryFamily(t *testing.T) {
	const owners, n, T = 20, 3, 120
	specs := map[pricing.Family]pricing.FamilySpec{
		pricing.FamilyLinear: {Family: pricing.FamilyLinear, Dim: n, Reserve: true, Threshold: 0.05},
		pricing.FamilyNonlinear: {Family: pricing.FamilyNonlinear, Dim: n, Reserve: true, Threshold: 0.05,
			Model: pricing.ModelConfig{Link: "exp"}},
		pricing.FamilySGD: {Family: pricing.FamilySGD, Dim: n, Reserve: true,
			Model: pricing.ModelConfig{Eta0: 0.5, Margin: 1.0}},
	}
	for fam, spec := range specs {
		fp, err := pricing.NewFamilyPoster(spec)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		ownerPop := testOwners(t, owners, 51)
		b, err := NewBroker(Config{
			Owners: ownerPop, Mechanism: pricing.NewSync(fp),
			FeatureDim: n, Seed: 52,
		})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		theta := randx.New(53).NormalVector(n, 1)
		for i := range theta {
			theta[i] = math.Abs(theta[i])
		}
		theta.Normalize()
		theta.Scale(math.Sqrt(2 * float64(n)))
		cm, err := NewConsumerModel(ConsumerConfig{Owners: ownerPop, FeatureDim: n, Theta: theta})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		rng := randx.New(54)
		queries := make([]Query, T)
		for i := range queries {
			q, err := cm.NextQuery(rng)
			if err != nil {
				t.Fatalf("%s: %v", fam, err)
			}
			queries[i] = q
		}
		// Half through single trades, half through one batch.
		for i := 0; i < T/2; i++ {
			if _, err := b.Trade(queries[i]); err != nil {
				t.Fatalf("%s: trade %d: %v", fam, i, err)
			}
		}
		txs, err := tradeBatch(b, queries[T/2:])
		if err != nil {
			t.Fatalf("%s: batch trade: %v", fam, err)
		}
		if len(txs) != T-T/2 {
			t.Fatalf("%s: batch produced %d transactions", fam, len(txs))
		}
		ledger := b.Ledger()
		if len(ledger) != T {
			t.Fatalf("%s: ledger has %d rounds, want %d", fam, len(ledger), T)
		}
		// The reserve price constraint holds for every family: no sold
		// round loses money.
		for i, tx := range ledger {
			if tx.Sold && tx.Profit < -1e-9 {
				t.Fatalf("%s: round %d sold at a loss: %+v", fam, i, tx)
			}
		}
	}
}
