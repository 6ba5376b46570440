package main

import (
	"context"
	"fmt"
	"hash"
	"math"
	"sort"

	"datamarket/api"
	"datamarket/client"
	"datamarket/internal/dataset"
	"datamarket/internal/loadgen"
	"datamarket/internal/randx"
)

// ratings is §V-A: one hosted market whose owners are MovieLens-shaped
// raters with tanh contracts, traded against with noisy linear queries.
// Queries weight tens of owners and are drawn from a Zipf-popular pool
// larger than the broker's quote cache; the pool is held sparse and
// densified into reused buffers, since the SDK sends dense weights. Each
// op is one TradeBatch over the binary codec. Valuations are uniform on
// [0, 5], as internal/loadgen's ratings scenario draws them.
type ratings struct {
	market  string
	create  api.CreateMarketRequest
	owners  int
	support [][]int     // query pool: ascending owner indices
	weights [][]float64 // query pool: weights aligned with support
	query   []int32     // op*batch+k → query of trade k
	value   []float64   // op*batch+k → valuation of trade k
	batch   int
}

// ratingsNoise is every query's noise variance.
const ratingsNoise = 1

func (r *ratings) name() string { return "ratings" }
func (r *ratings) unit() string { return "trades" }
func (r *ratings) binary() bool { return true }

// The seed settled 22–25k trades/s over binary at 4,000 owners and
// support 32, ~350–390 batches/s; the loaded rate is about half of that
// and the light rate an eighth: a megabyte frame keeps a core busy for a
// while, and above that the light phase's open-loop sends ran late by
// milliseconds on some runs and not others. Each op in flight holds 2MB
// of dense weights, so at most two per connection are.
func (r *ratings) shape() shape {
	return shape{lightRate: 50, loadedRate: 180, warmup: 32, warmCalls: 2, maxOut: 4, ring: 4096}
}

func (r *ratings) generate(seed uint64, sz sizes, ops int) error {
	rs, err := dataset.GenerateRatings(dataset.MovieLensConfig{
		Users: sz.owners, Movies: sz.movies, RatingsPerUser: 20, Seed: seed,
	})
	if err != nil {
		return err
	}
	values, ranges := dataset.OwnerValues(dataset.UserProfiles(rs))
	owners := make([]api.OwnerSpec, len(values))
	for i := range owners {
		owners[i] = api.OwnerSpec{
			Value: values[i], Range: ranges[i],
			Contract: api.ContractSpec{Type: "tanh", Rho: 1, Eta: 10},
		}
	}
	r.owners = len(owners)
	r.market = "ratings"
	r.create = api.CreateMarketRequest{
		ID: r.market, Owners: owners, Seed: seed, Family: "linear", Horizon: scenarioHorizon,
	}
	rng := randx.NewStream(seed, 0x2a71)
	pick := loadgen.NewChooser(r.owners, 1, rng)
	scratch := make(map[int]struct{}, sz.support)
	r.support = make([][]int, sz.queries)
	r.weights = make([][]float64, sz.queries)
	for q := range r.support {
		sup := pick.NextDistinct(sz.support, scratch)
		sort.Ints(sup)
		w := make([]float64, len(sup))
		for k := range w {
			w[k] = math.Abs(rng.Normal(0, 1))
		}
		r.support[q], r.weights[q] = sup, w
	}
	r.batch = sz.batch
	qpick := loadgen.NewChooser(sz.queries, 1, rng)
	r.query = make([]int32, ops*sz.batch)
	r.value = make([]float64, ops*sz.batch)
	for j := range r.query {
		r.query[j] = int32(qpick.Next())
		r.value[j] = rng.Uniform(0, 5)
	}
	return nil
}

func (r *ratings) digest(h hash.Hash64) {
	for _, o := range r.create.Owners {
		hashFloats(h, o.Value, o.Range)
	}
	for q, sup := range r.support {
		for k, i := range sup {
			hashInt(h, i)
			hashFloats(h, r.weights[q][k])
		}
	}
	for j, q := range r.query {
		hashInt(h, int(q))
		hashFloats(h, r.value[j])
	}
}

func (r *ratings) provision(ctx context.Context, s *session) error {
	ctx, end := s.tr.beginSDK(ctx, -1)
	_, err := s.c.CreateMarket(ctx, r.create)
	end(0)
	if err != nil {
		return fmt.Errorf("creating market %q: %w", r.market, err)
	}
	return nil
}

// dense holds one batch of dense weight vectors, reused across ops: only
// the previous query's support is zeroed before the next is written.
type dense struct {
	w    [][]float64
	prev [][]int
}

func (r *ratings) newDense() *dense {
	d := &dense{w: make([][]float64, r.batch), prev: make([][]int, r.batch)}
	for k := range d.w {
		d.w[k] = make([]float64, r.owners)
	}
	return d
}

// fill densifies trade k of op into the batch's k-th vector.
func (d *dense) fill(r *ratings, op, k int) []float64 {
	w := d.w[k]
	for _, i := range d.prev[k] {
		w[i] = 0
	}
	q := r.query[op*r.batch+k]
	for j, i := range r.support[q] {
		w[i] = r.weights[q][j]
	}
	d.prev[k] = r.support[q]
	return w
}

// trades builds op's TradeBatch request into dst over d's buffers.
func (r *ratings) trades(op int, d *dense, dst []api.TradeRequest) []api.TradeRequest {
	dst = dst[:0]
	for k := 0; k < r.batch; k++ {
		dst = append(dst, api.TradeRequest{
			Weights: d.fill(r, op, k), NoiseVariance: ratingsNoise, Valuation: r.value[op*r.batch+k],
		})
	}
	return dst
}

type ratingsCaller struct {
	r      *ratings
	s      *session
	d      *dense
	trades []api.TradeRequest
}

func (r *ratings) newCaller(s *session) caller {
	return &ratingsCaller{r: r, s: s, d: r.newDense(), trades: make([]api.TradeRequest, 0, r.batch)}
}

func (c *ratingsCaller) issue(ctx context.Context, op int) opResult {
	r := c.r
	c.trades = r.trades(op, c.d, c.trades)
	ctx, end := c.s.tr.beginSDK(ctx, op)
	results, err := c.s.c.TradeBatch(ctx, r.market, c.trades)
	if err != nil {
		end(0)
		return failure(0, "trade batch: %v", err)
	}
	units := 0
	for _, res := range results {
		if res.Error == "" {
			units++
		}
	}
	end(units)
	if len(results) != len(c.trades) {
		return failure(units, "%d results for %d trades", len(results), len(c.trades))
	}
	for k, res := range results {
		if res.Error != "" {
			return failure(units, "trade failed: %s", res.Error)
		}
		if why := checkTrade(res.TradeResult, c.trades[k].Valuation); why != "" {
			return failure(units, "%s", why)
		}
	}
	return opResult{units: units}
}

// checkTrade checks one settled trade: a finite posted price never below
// the reserve, a sale exactly when a posted price met the valuation, and
// books of a sale that balance: profit = revenue − compensation ≥ 0.
func checkTrade(t api.TradeResult, valuation float64) string {
	if !finite(t.Posted) || !finite(t.Reserve) {
		return fmt.Sprintf("posted %v or reserve %v is not finite", t.Posted, t.Reserve)
	}
	if t.Posted < t.Reserve {
		return fmt.Sprintf("posted %v below reserve %v", t.Posted, t.Reserve)
	}
	if t.Sold != (t.Decision != "skip" && t.Posted <= valuation) {
		return fmt.Sprintf("sale %v disagrees with posted %v and valuation %v", t.Sold, t.Posted, valuation)
	}
	if t.Sold && (t.Profit != t.Revenue-t.Compensation || t.Profit < 0) {
		return fmt.Sprintf("profit %v from revenue %v and compensation %v", t.Profit, t.Revenue, t.Compensation)
	}
	return ""
}

// payoutSlack bounds the rounding between the per-owner payout sum and
// the running compensation total, which add the same amounts in
// different orders.
const payoutSlack = 1e-9

func (r *ratings) books(ctx context.Context, c *client.Client) (books, error) {
	st, err := c.MarketStats(ctx, r.market)
	if err != nil {
		return books{}, fmt.Errorf("stats of market %q: %w", r.market, err)
	}
	pay, err := c.Payouts(ctx, r.market)
	if err != nil {
		return books{}, fmt.Errorf("payouts of market %q: %w", r.market, err)
	}
	if math.Abs(pay.Total-st.Compensation) > payoutSlack*math.Max(1, math.Abs(st.Compensation)) {
		return books{}, fmt.Errorf("market %q pays owners %v but books %v of compensation", r.market, pay.Total, st.Compensation)
	}
	if st.Profit < 0 {
		return books{}, fmt.Errorf("market %q made a loss of %v", r.market, st.Profit)
	}
	return books{
		rounds: st.Rounds, regret: st.Regret.CumulativeRegret, value: st.Regret.CumulativeValue,
		cuts: st.Counters.CutsApplied, skips: st.Counters.Skips, mechRuns: st.Counters.Rounds,
	}, nil
}
