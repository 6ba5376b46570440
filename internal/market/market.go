// Package market implements the online personal data market of the paper's
// system model (Fig. 2): data owners contribute private values under
// compensation contracts, a data broker answers noisy linear queries from
// online data consumers, quantifies privacy leakage, compensates owners,
// and prices each query with a posted-price mechanism subject to the
// reserve price constraint (the total privacy compensation).
package market

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"datamarket/internal/feature"
	"datamarket/internal/linalg"
	"datamarket/internal/pricing"
	"datamarket/internal/privacy"
	"datamarket/internal/randx"
)

// Owner is a data owner: a private value (e.g. an aggregate of her
// MovieLens ratings), the range Δ of that value used in sensitivity
// analysis, and her compensation contract.
type Owner struct {
	// ID identifies the owner.
	ID int
	// Value is the private data value the broker holds for her.
	Value float64
	// Range bounds how much Value could change between neighboring
	// databases (the per-owner sensitivity Δᵢ ≥ 0).
	Range float64
	// Contract converts privacy leakage into compensation.
	Contract privacy.Contract
}

// Query is a data consumer's customized request: a noisy linear query to
// evaluate over the owners' values.
type Query struct {
	// Q is the underlying noisy linear query (weights + noise variance).
	Q *privacy.LinearQuery
	// Valuation is the consumer's private market value for the answer;
	// the broker never observes it, only whether her price was accepted.
	Valuation float64
}

// Transaction is the ledger record of one pricing round. The ledger
// keeps a compact entry per round and rebuilds the derived fields
// (Round, Revenue, Compensation, Profit, Regret) when it is read.
type Transaction struct {
	Round        int
	Reserve      float64
	Posted       float64
	Decision     pricing.Decision
	Sold         bool
	Revenue      float64 // price collected if sold
	Compensation float64 // paid out to owners if sold
	Profit       float64 // Revenue − Compensation (≥ 0 by reserve constraint)
	Answer       float64 // noisy answer returned if sold
	MarketValue  float64 // consumer's valuation (recorded for evaluation)
	Regret       float64 // per Eq. (1)
}

// Broker runs the data market: it owns the dataset, the compensation
// machinery, the feature pipeline, and the pricing mechanism.
//
// Trade and TradeBatchOutcomes are safe for concurrent use: every pricing
// round runs atomically on the pricing.SyncPoster, and the broker's own
// ledger and payout state are guarded by an internal mutex. Under
// concurrency, ledger order may differ from pricing-round order.
type Broker struct {
	owners    []Owner
	values    linalg.Vector
	ranges    linalg.Vector
	contracts []privacy.Contract

	mech       *pricing.SyncPoster
	featureDim int

	// ctxPool recycles QuoteContext scratch between trades. Prepare
	// reads only the immutable config above, so the pool needs no
	// coordination with the books mutex below.
	ctxPool sync.Pool

	mu     sync.Mutex // guards rng, ledger, ownerPayout, totals
	rng    *randx.RNG
	ledger ledger

	ownerPayout linalg.Vector // cumulative compensation per owner

	// Running totals, maintained in settle so Stats and the profit/
	// revenue accessors are O(1) regardless of ledger length.
	sold            int
	totRevenue      float64
	totCompensation float64
}

// Config configures a Broker.
type Config struct {
	// Owners is the data owner population; must be non-empty, with
	// non-negative ranges and non-nil contracts.
	Owners []Owner
	// Mechanism is the posted-price strategy: a pricing.SyncPoster over
	// any hosted family, typically pricing.NewSync of a pricing.Mechanism
	// built with WithReserve().
	Mechanism *pricing.SyncPoster
	// FeatureDim is the dimension n of the aggregated compensation
	// feature vector (1 ≤ FeatureDim ≤ len(Owners)).
	FeatureDim int
	// Seed drives the Laplace noise in the returned answers.
	Seed uint64
}

// NewBroker validates the configuration and builds the broker.
func NewBroker(cfg Config) (*Broker, error) {
	if len(cfg.Owners) == 0 {
		return nil, fmt.Errorf("market: no data owners")
	}
	if cfg.Mechanism == nil {
		return nil, fmt.Errorf("market: no pricing mechanism")
	}
	if cfg.FeatureDim < 1 || cfg.FeatureDim > len(cfg.Owners) {
		return nil, fmt.Errorf("market: feature dimension %d out of range [1, %d]",
			cfg.FeatureDim, len(cfg.Owners))
	}
	b := &Broker{
		owners:      cfg.Owners,
		values:      make(linalg.Vector, len(cfg.Owners)),
		ranges:      make(linalg.Vector, len(cfg.Owners)),
		contracts:   make([]privacy.Contract, len(cfg.Owners)),
		mech:        cfg.Mechanism,
		featureDim:  cfg.FeatureDim,
		rng:         randx.New(cfg.Seed),
		ownerPayout: make(linalg.Vector, len(cfg.Owners)),
	}
	for i, o := range cfg.Owners {
		if o.Contract == nil {
			return nil, fmt.Errorf("market: owner %d has no contract", i)
		}
		b.values[i] = o.Value
		b.ranges[i] = o.Range
		b.contracts[i] = o.Contract
	}
	// Validate all ranges once here so the per-trade leakage loop
	// doesn't have to (privacy.Leakages documents this hoist).
	if err := privacy.ValidateRanges(b.ranges); err != nil {
		return nil, fmt.Errorf("market: %w", err)
	}
	b.ctxPool.New = func() any { return new(QuoteContext) }
	return b, nil
}

// Owners returns the number of data owners.
func (b *Broker) Owners() int { return len(b.owners) }

// FeatureDim returns the aggregation dimension n.
func (b *Broker) FeatureDim() int { return b.featureDim }

// QuoteContext is the broker-side derivation for one query, exposed so
// experiments can reuse the exact pipeline without trading. It is
// support-sparse: Leakages and Compensations carry one entry per owner
// in Support, not one per owner in the market — owners outside the
// query's support leak nothing and are owed nothing by construction,
// so a 64-owner query over a 65536-owner market derives 64 entries.
type QuoteContext struct {
	// Support is the ascending owner indices with nonzero query weight.
	Support []int
	// Leakages and Compensations align with Support entry for entry:
	// Leakages[k] and Compensations[k] belong to owner Support[k].
	Leakages      linalg.Vector
	Compensations linalg.Vector
	// Reserve is the total compensation in normalized feature units.
	Reserve float64
	// Features is the L2-normalized partition aggregation (§V-A).
	Features linalg.Vector
	// Scale is the L2 normalization constant.
	Scale float64

	sorted linalg.Vector // sort scratch, reused across PrepareInto calls
}

// Prepare runs the §II-B pipeline for a query: leakage quantification,
// compensations, reserve price, and the normalized partition-aggregated
// feature vector. The results are bit-identical to the dense
// per-owner pipeline (Leakages → Compensations → CompensationFeatures)
// restricted to the query's support.
func (b *Broker) Prepare(q *privacy.LinearQuery) (*QuoteContext, error) {
	ctx := new(QuoteContext)
	if err := b.PrepareInto(ctx, q); err != nil {
		return nil, err
	}
	return ctx, nil
}

// resizeVec returns v with length n, reusing its backing array when
// the capacity allows.
func resizeVec(v linalg.Vector, n int) linalg.Vector {
	if cap(v) < n {
		return make(linalg.Vector, n)
	}
	return v[:n]
}

// PrepareInto is Prepare into caller-owned scratch: dst's slices are
// resized in place and reused, so the steady state allocates nothing.
// dst must not be used by another goroutine while the call runs, and
// earlier results read from dst are overwritten.
func (b *Broker) PrepareInto(dst *QuoteContext, q *privacy.LinearQuery) error {
	sup := q.Support()
	leak, err := q.SupportLeakages(dst.Leakages, b.ranges)
	if err != nil {
		return fmt.Errorf("market: leakage quantification: %w", err)
	}
	dst.Leakages = leak
	comps, err := privacy.SupportCompensations(dst.Compensations, sup, leak, b.contracts)
	if err != nil {
		return fmt.Errorf("market: compensations: %w", err)
	}
	dst.Compensations = comps
	dst.Support = append(dst.Support[:0], sup...)
	dst.sorted = append(dst.sorted[:0], comps...)
	sort.Float64s(dst.sorted)
	dst.Features = resizeVec(dst.Features, b.featureDim)
	if err := feature.PartitionAggregateSorted(dst.Features, dst.sorted, len(b.ranges)-len(sup)); err != nil {
		return fmt.Errorf("market: feature aggregation: %w", err)
	}
	// The reserve is the actual total compensation (what the broker must
	// pay out), matching the non-negative-utility constraint of §II-A.
	// Note the paper's §V-A normalization prices everything in units of
	// the feature scale; we keep the reserve in those same units so the
	// reserve constraint q_t = Σᵢ x_{t,i} of the experiments holds.
	dst.Scale = dst.Features.Normalize()
	dst.Reserve = dst.Features.Sum()
	return nil
}

// quoteFor prepares q into a pooled QuoteContext. The caller returns it
// to b.ctxPool once the trade settles.
func (b *Broker) quoteFor(q *privacy.LinearQuery) (*QuoteContext, error) {
	ctx := b.ctxPool.Get().(*QuoteContext)
	if err := b.PrepareInto(ctx, q); err != nil {
		b.ctxPool.Put(ctx)
		return nil, err
	}
	return ctx, nil
}

// Trade executes one full round: prepare, post a price, observe the
// consumer's decision, settle payments, and append to the ledger. The
// consumer accepts iff the posted price is at most her valuation. The
// post-observe pair and the round's regret record run atomically
// (SyncPoster.PriceRound), so concurrent trades cannot interleave inside
// a round.
func (b *Broker) Trade(query Query) (Transaction, error) {
	ctx, err := b.quoteFor(query.Q)
	if err != nil {
		return Transaction{}, err
	}
	defer b.ctxPool.Put(ctx)
	quote, sold, err := b.mech.PriceRound(ctx.Features, ctx.Reserve, query.Valuation)
	if err != nil {
		return Transaction{}, fmt.Errorf("market: pricing round: %w", err)
	}
	return b.settle(query, ctx, quote, sold)
}

// TradeOutcome is one query's result from TradeBatchOutcomes: the
// settled transaction, or the error that stopped it (prepare, pricing,
// or settlement).
type TradeOutcome struct {
	Tx  Transaction
	Err error
}

// TradeBatchOutcomes executes len(queries) full rounds and reports them
// index-for-index — the form serving layers need to answer each request
// slot of a wire batch. A query that fails leaves no ledger entry; the
// rest trade normally.
//
// The batch runs in three phases: queries prepare into pooled contexts
// in parallel across a bounded worker pool (Prepare reads only immutable
// broker config), all prepared rounds price under one pricing lock
// acquisition (PriceBatch), and all priced rounds settle under one books
// lock acquisition (settleBatch) — two lock handoffs per batch instead
// of two per trade.
func (b *Broker) TradeBatchOutcomes(queries []Query) []TradeOutcome {
	out := make([]TradeOutcome, len(queries))
	ctxs := make([]*QuoteContext, len(queries))
	b.prepareAll(queries, ctxs, out)
	rounds := make([]pricing.BatchRound, 0, len(queries))
	vals := make([]float64, 0, len(queries))
	idx := make([]int, 0, len(queries)) // query index of each prepared round
	for i, ctx := range ctxs {
		if ctx == nil {
			continue
		}
		rounds = append(rounds, pricing.BatchRound{X: ctx.Features, Reserve: ctx.Reserve})
		vals = append(vals, queries[i].Valuation)
		idx = append(idx, i)
	}
	priced := b.mech.PriceBatch(rounds, vals)
	b.settleBatch(queries, ctxs, idx, priced, out)
	for _, ctx := range ctxs {
		if ctx != nil {
			b.ctxPool.Put(ctx)
		}
	}
	return out
}

// minPrepareChunk is the fewest queries worth handing one prepare
// worker: below GOMAXPROCS×this, goroutine startup costs more than the
// parallelism buys on support-sparse prepares.
const minPrepareChunk = 8

// prepareAll runs quoteFor for every query, filling ctxs (or
// out[i].Err) index-aligned. Large batches fan out across a bounded
// worker pool: Prepare reads only the broker's immutable config, so the
// only shared state is the context pool.
func (b *Broker) prepareAll(queries []Query, ctxs []*QuoteContext, out []TradeOutcome) {
	prep := func(i int) {
		ctx, err := b.quoteFor(queries[i].Q)
		if err != nil {
			out[i].Err = fmt.Errorf("preparing query: %w", err)
			return
		}
		ctxs[i] = ctx
	}
	workers := runtime.GOMAXPROCS(0)
	if most := len(queries) / minPrepareChunk; workers > most {
		workers = most
	}
	if workers <= 1 {
		for i := range queries {
			prep(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				prep(i)
			}
		}(w)
	}
	wg.Wait()
}

// settleBatch settles every priced round under ONE books-lock
// acquisition — the sanctioned batch-settle shape: per-item locking
// inside the loop would pay a mutex handoff per trade, which under
// concurrency dominates the support-sparse settle itself.
func (b *Broker) settleBatch(queries []Query, ctxs []*QuoteContext, idx []int, priced []pricing.BatchOutcome, out []TradeOutcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for k, o := range priced {
		i := idx[k]
		if o.Err != nil {
			out[i].Err = fmt.Errorf("pricing query: %w", o.Err)
			continue
		}
		tx, err := b.settleLocked(queries[i], ctxs[i], o.Quote, o.Accepted)
		if err != nil {
			out[i].Err = fmt.Errorf("settling query: %w", err)
			continue
		}
		out[i].Tx = tx
	}
}

// settle updates the broker's books for one priced round under the lock.
func (b *Broker) settle(query Query, ctx *QuoteContext, quote pricing.Quote, sold bool) (Transaction, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.settleLocked(query, ctx, quote, sold)
}

// settleLocked is settle's body; the caller holds b.mu (settle for one
// round, settleBatch for a whole batch under a single acquisition).
func (b *Broker) settleLocked(query Query, ctx *QuoteContext, quote pricing.Quote, sold bool) (Transaction, error) {
	e := entry{
		reserve:     ctx.Reserve,
		posted:      ctx.Reserve,
		marketValue: query.Valuation,
		flags:       uint8(quote.Decision),
	}
	if quote.Decision != pricing.DecisionSkip {
		e.posted = quote.Price
		if sold {
			e.flags |= soldFlag
		}
	}

	if e.sold() {
		// Answer the query before touching any payout state: if the
		// answer fails, the settlement must leave the books exactly as
		// they were — no payout without a matching ledger entry.
		ans, err := query.Q.Answer(b.values, b.rng)
		if err != nil {
			return Transaction{}, err
		}
		e.answer = ans
		// Pay owners proportionally to their compensations, in
		// compensation units rescaled to feature units. Only supported
		// owners can be owed anything (π(0) = 0), so the update is
		// support-sparse: O(support), not O(owners).
		total := ctx.Compensations.Sum()
		if total > 0 {
			for k, c := range ctx.Compensations {
				b.ownerPayout[ctx.Support[k]] += ctx.Reserve * c / total
			}
		}
	}
	tx := e.transaction(b.ledger.len())
	if tx.Sold {
		b.sold++
		b.totRevenue += tx.Revenue
		b.totCompensation += tx.Compensation
	}
	b.ledger.append(e)
	return tx, nil
}

// Ledger returns a copy of the recorded transactions in trade order.
// The returned slice is the caller's own, so — unlike the shared slice
// this used to hand out — it is safe to read while trades are in flight
// and safe to mutate.
func (b *Broker) Ledger() []Transaction {
	txs, _ := b.LedgerSlice(0, 0)
	return txs
}

// LedgerSlice copies out ledger entries [offset, offset+limit) in trade
// order, plus the full ledger length. Negative offset is treated as 0;
// limit ≤ 0 means "to the end". Unlike Ledger it is safe while trades
// are in flight: the returned slice is the caller's own. Only the
// page's compact entries are copied under the books lock; the
// transactions are rebuilt from them after it is released.
func (b *Broker) LedgerSlice(offset, limit int) ([]Transaction, int) {
	b.mu.Lock()
	total := b.ledger.len()
	offset = min(max(offset, 0), total)
	end := total
	if limit > 0 && limit < end-offset {
		end = offset + limit
	}
	page := make([]entry, end-offset)
	b.ledger.copyTo(page, offset)
	b.mu.Unlock()

	out := make([]Transaction, len(page))
	for i := range page {
		out[i] = page[i].transaction(offset + i)
	}
	return out, total
}

// Payouts copies out the cumulative compensation paid to each owner.
func (b *Broker) Payouts() linalg.Vector {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ownerPayout.Clone()
}

// Stats is a snapshot of the broker's books: the market totals plus the
// mechanism's counters and regret aggregates over every priced trade.
type Stats struct {
	// Rounds counts every trade; Sold the settled ones.
	Rounds int
	Sold   int
	// Revenue, Compensation, Profit are the market totals
	// (Profit = Revenue − Compensation ≥ 0 by the reserve constraint).
	Revenue      float64
	Compensation float64
	Profit       float64
	// Counters is the mechanism's per-round bookkeeping.
	Counters pricing.Counters
	// Regret aggregates per Eq. (1).
	CumulativeRegret  float64
	CumulativeValue   float64
	CumulativeRevenue float64
	RegretRatio       float64
}

// Stats is safe while trades are in flight. The market totals are read
// under the books lock, and the counters and regret under one
// acquisition of the mechanism's lock. A trade records its regret when
// it is priced and enters the totals when it settles, so a concurrent
// call may see regret up to one batch ahead of the totals; once trades
// finish, the two agree.
func (b *Broker) Stats() Stats {
	counters, reg := b.mech.Books()
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{
		Rounds:            b.ledger.len(),
		Sold:              b.sold,
		Revenue:           b.totRevenue,
		Compensation:      b.totCompensation,
		Profit:            b.totRevenue - b.totCompensation,
		Counters:          counters,
		CumulativeRegret:  reg.CumRegret,
		CumulativeValue:   reg.CumValue,
		CumulativeRevenue: reg.CumRevenue,
		RegretRatio:       reg.RegretRatio(),
	}
}

// OwnerPayout returns the cumulative compensation paid to owner i.
func (b *Broker) OwnerPayout(i int) (float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= len(b.ownerPayout) {
		return 0, fmt.Errorf("market: owner %d out of range", i)
	}
	return b.ownerPayout[i], nil
}

// TotalProfit returns Σ (revenue − compensation) over all transactions;
// the reserve price constraint guarantees it is non-negative.
func (b *Broker) TotalProfit() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.totRevenue - b.totCompensation
}

// TotalRevenue returns the total price collected from consumers.
func (b *Broker) TotalRevenue() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.totRevenue
}
