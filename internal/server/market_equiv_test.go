package server

// HTTP-layer equivalence: trading through the hosted-market edge must
// produce bit-identical books to driving an identically-configured
// broker directly — the serving fast path (shared-weight queries, quote
// cache, batch settle) must not be observable in the results.

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"datamarket/internal/market"
	"datamarket/internal/randx"
)

// sparseOf rewrites a dense trade into the sparse form.
func sparseOf(dense TradeRequest) TradeRequest {
	s := TradeRequest{
		Owners: len(dense.Weights), Weights: []float64{},
		NoiseVariance: dense.NoiseVariance, Valuation: dense.Valuation,
	}
	for i, w := range dense.Weights {
		if w != 0 {
			s.Support = append(s.Support, i)
			s.Weights = append(s.Weights, w)
		}
	}
	return s
}

// TestHostedMarketMatchesLocalBroker runs once with every trade dense
// on the wire and once with every other trade sent sparse; the local
// broker always gets the dense form.
func TestHostedMarketMatchesLocalBroker(t *testing.T) {
	t.Run("dense", func(t *testing.T) { testHostedMarketMatchesLocalBroker(t, false) })
	t.Run("alternate sparse", func(t *testing.T) { testHostedMarketMatchesLocalBroker(t, true) })
}

func testHostedMarketMatchesLocalBroker(t *testing.T, sparse bool) {
	const (
		owners = 120
		rounds = 60
		batch  = 20
	)
	spec := CreateMarketRequest{
		ID: "equiv", Seed: 17, Horizon: 1000,
		Owners: make([]OwnerSpec, owners),
	}
	vals := randx.New(91).UniformVector(owners, 1, 5)
	for i := range spec.Owners {
		contract := ContractSpec{Type: "tanh", Rho: 1, Eta: 10}
		if i%4 == 0 {
			contract = ContractSpec{Type: "linear", Rho: 0.5}
		}
		spec.Owners[i] = OwnerSpec{Value: vals[i], Range: 4, Contract: contract}
	}

	srv := NewServer(nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := &client{t: t, base: ts.URL, http: ts.Client()}
	var info MarketInfo
	c.mustDo("POST", "/v1/markets", spec, &info, http.StatusCreated)

	local, err := newHostedMarket(spec)
	if err != nil {
		t.Fatal(err)
	}

	r := randx.New(92)
	mkTrade := func() TradeRequest {
		w := make([]float64, owners)
		for _, i := range r.Perm(owners)[:16] {
			w[i] = r.Normal(0, 1)
		}
		return TradeRequest{Weights: w, NoiseVariance: 1, Valuation: r.Uniform(0, 8)}
	}
	wire := func(i int, req TradeRequest) TradeRequest {
		if sparse && i%2 == 1 {
			return sparseOf(req)
		}
		return req
	}
	checkTx := func(round int, got TradeResult, tx market.Transaction) {
		t.Helper()
		want := tradeResult(tx)
		if got != want {
			t.Fatalf("round %d: HTTP result %+v != local %+v", round, got, want)
		}
	}

	// Interleave single trades (some repeated, so the server's quote
	// cache serves hits) with a batch, mirroring each step locally.
	repeat := mkTrade()
	for i := 0; i < rounds; i++ {
		req := repeat
		if i%3 != 0 {
			req = mkTrade()
		}
		var resp TradeResponse
		c.mustDo("POST", "/v1/markets/equiv/trade", wire(i, req), &resp, http.StatusOK)
		q, err := marketQuery(local, req)
		if err != nil {
			t.Fatal(err)
		}
		tx, err := local.broker.Trade(q)
		if err != nil {
			t.Fatal(err)
		}
		checkTx(i, resp.TradeResult, tx)
	}
	trades := make([]TradeRequest, batch)
	queries := make([]market.Query, batch)
	for i := range trades {
		req := mkTrade()
		q, err := marketQuery(local, req)
		if err != nil {
			t.Fatal(err)
		}
		trades[i], queries[i] = wire(i, req), q
	}
	var batchResp TradeBatchResponse
	c.mustDo("POST", "/v1/markets/equiv/trade/batch",
		TradeBatchRequest{Trades: trades}, &batchResp, http.StatusOK)
	outcomes := local.broker.TradeBatchOutcomes(queries)
	for i, res := range batchResp.Results {
		if res.Error != "" || outcomes[i].Err != nil {
			t.Fatalf("batch slot %d: HTTP err %q, local err %v", i, res.Error, outcomes[i].Err)
		}
		checkTx(rounds+i, res.TradeResult, outcomes[i].Tx)
	}

	// The full ledgers and payout vectors must agree entry for entry.
	hosted, err := srv.markets.Get("equiv")
	if err != nil {
		t.Fatal(err)
	}
	hl, ll := hosted.broker.Ledger(), local.broker.Ledger()
	if len(hl) != len(ll) || len(hl) != rounds+batch {
		t.Fatalf("ledger lengths: hosted %d, local %d, want %d", len(hl), len(ll), rounds+batch)
	}
	for i := range hl {
		if hl[i] != ll[i] {
			t.Fatalf("ledger[%d]: hosted %+v != local %+v", i, hl[i], ll[i])
		}
	}
	hp, lp := hosted.broker.Payouts(), local.broker.Payouts()
	for i := range hp {
		if hp[i] != lp[i] {
			t.Fatalf("payout[%d]: hosted %v != local %v", i, hp[i], lp[i])
		}
	}
}
