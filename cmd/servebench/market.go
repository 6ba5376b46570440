package main

// The market scenario: throughput of the hosted-market trade loop on a
// 10k-owner market queried with 64-support queries, the workload the
// sparse/zero-alloc/batch-settled fast path targets.
//
// Four experiments:
//
//   - dense_loop: the pre-fast-path in-process baseline, reproducing the
//     seed pipeline verbatim — dense leakages and compensations over
//     every owner, clone-and-sort aggregation, one pricing round and one
//     books-mutex acquisition per trade, dense payout updates;
//   - batch_inprocess: market.Broker.TradeBatchOutcomes — the sparse
//     pipeline with parallel prepare, one pricing lock and one books
//     lock per batch;
//   - http_trade_json: single trades through the HTTP edge over JSON;
//   - http_batch_binary: batched trades through the HTTP edge over the
//     binary codec.
//
// The headline is batch_inprocess over dense_loop (target ≥10×).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"datamarket/api"
	"datamarket/api/binary"
	"datamarket/internal/feature"
	"datamarket/internal/histo"
	"datamarket/internal/linalg"
	"datamarket/internal/market"
	"datamarket/internal/pricing"
	"datamarket/internal/privacy"
	"datamarket/internal/randx"
	"datamarket/internal/server"
)

const marketFeatureDim = 10

type marketResult struct {
	Mode         string  `json:"mode"`
	Batch        int     `json:"batch,omitempty"`
	Workers      int     `json:"workers"`
	DurationSec  float64 `json:"duration_sec"`
	Trades       int64   `json:"trades"`
	TradesPerSec float64 `json:"trades_per_sec"`
	// Latency per unit of work: one trade for the per-trade modes, one
	// whole batch for the batch modes.
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
}

type marketReport struct {
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	CPUs      int    `json:"cpus"`
	Owners    int    `json:"owners"`
	Support   int    `json:"support"`
	// BatchOverDense is the acceptance headline: batched sparse trades/s
	// as a multiple of the dense per-trade seed loop (target ≥10×).
	BatchOverDense float64 `json:"batch_over_dense"`
	// HTTPBinaryBatchTradesPerSec is the served number at the wire.
	HTTPBinaryBatchTradesPerSec float64        `json:"http_binary_batch_trades_per_sec"`
	Results                     []marketResult `json:"results"`
}

// marketPopulation builds the benchmark owner population.
func marketPopulation(owners int) ([]market.Owner, error) {
	contract, err := privacy.NewTanhContract(1, 10)
	if err != nil {
		return nil, err
	}
	r := randx.New(11)
	pop := make([]market.Owner, owners)
	for i := range pop {
		pop[i] = market.Owner{ID: i, Value: r.Uniform(1, 5), Range: 4, Contract: contract}
	}
	return pop, nil
}

// marketMechanism builds the same family mechanism a hosted market uses.
func marketMechanism() (*pricing.SyncPoster, error) {
	poster, err := pricing.NewFamilyPoster(pricing.FamilySpec{
		Dim: marketFeatureDim, Reserve: true, Horizon: 100_000_000,
	})
	if err != nil {
		return nil, err
	}
	return pricing.NewSync(poster), nil
}

// tradePool is a pre-generated set of distinct sparse queries the timed
// loops cycle through. Query synthesis over a 10k-owner population costs
// more than a fast-path trade (a permutation plus several dense passes),
// so it must happen outside the measured window; the pool is read-only
// and shared across workers.
type tradePool struct {
	queries []*privacy.LinearQuery
	reqs    []api.TradeRequest // same weights, wire form
	vals    []float64
}

func buildTradePool(owners, support, size int) (*tradePool, error) {
	r := randx.New(8)
	p := &tradePool{
		queries: make([]*privacy.LinearQuery, size),
		reqs:    make([]api.TradeRequest, size),
		vals:    make([]float64, size),
	}
	for k := 0; k < size; k++ {
		w := make(linalg.Vector, owners)
		for _, i := range r.Perm(owners)[:support] {
			w[i] = r.Normal(0, 1)
		}
		q, err := privacy.NewLinearQuery(w, 1)
		if err != nil {
			return nil, err
		}
		p.queries[k] = q
		p.vals[k] = r.Uniform(0, 10)
		p.reqs[k] = api.TradeRequest{Weights: w, NoiseVariance: 1, Valuation: p.vals[k]}
	}
	return p, nil
}

// measure runs worker goroutines against loop (which reports trades done
// and latency per iteration) until the deadline and aggregates.
func measure(mode string, duration time.Duration, workers, batch int,
	loop func(w int, deadline time.Time, record func(trades int64, lat time.Duration)) error) (marketResult, error) {
	var (
		total    atomic.Int64
		lats     = histo.New()
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(duration)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine int64
			err := loop(w, deadline, func(trades int64, lat time.Duration) {
				mine += trades
				lats.RecordDuration(lat)
			})
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
			}
			total.Add(mine)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return marketResult{}, err
	}
	sum := lats.Summarize(1e3)
	return marketResult{
		Mode:         mode,
		Batch:        batch,
		Workers:      workers,
		DurationSec:  round3(elapsed.Seconds()),
		Trades:       total.Load(),
		TradesPerSec: round3(float64(total.Load()) / elapsed.Seconds()),
		P50Micros:    sum.P50,
		P99Micros:    sum.P99,
	}, nil
}

// runDenseLoop is the pre-fast-path baseline: every trade walks the
// dense seed pipeline and takes its own books-mutex acquisition.
func runDenseLoop(pool *tradePool, duration time.Duration, workers, owners int) (marketResult, error) {
	pop, err := marketPopulation(owners)
	if err != nil {
		return marketResult{}, err
	}
	mech, err := marketMechanism()
	if err != nil {
		return marketResult{}, err
	}
	values := make(linalg.Vector, owners)
	ranges := make(linalg.Vector, owners)
	contracts := make([]privacy.Contract, owners)
	for i, o := range pop {
		values[i] = o.Value
		ranges[i] = o.Range
		contracts[i] = o.Contract
	}
	var (
		booksMu sync.Mutex
		rng     = randx.New(7)
		payout  = make(linalg.Vector, owners)
		answers float64
		rounds  int64
	)
	return measure("dense_loop", duration, workers, 0,
		func(w int, deadline time.Time, record func(int64, time.Duration)) error {
			k := w * 31 // stagger workers across the pool
			for time.Now().Before(deadline) {
				t0 := time.Now()
				q := pool.queries[k%len(pool.queries)]
				weights := linalg.Vector(pool.reqs[k%len(pool.queries)].Weights)
				valuation := pool.vals[k%len(pool.queries)]
				k++
				leak, err := q.Leakages(ranges)
				if err != nil {
					return err
				}
				comps, err := privacy.Compensations(leak, contracts)
				if err != nil {
					return err
				}
				x, _, reserve, err := feature.CompensationFeatures(comps, marketFeatureDim)
				if err != nil {
					return err
				}
				_, sold, err := mech.PriceRound(x, reserve, func(q pricing.Quote) bool {
					return pricing.Sold(q.Price, valuation)
				})
				if err != nil {
					return err
				}
				booksMu.Lock()
				if sold {
					// The seed's dense answer, Σ wᵢ·dᵢ over every owner;
					// q.Answer would sum over the support alone.
					answers += weights.Dot(values) + rng.Laplace(0, q.NoiseScale())
					if total := comps.Sum(); total > 0 {
						for i, c := range comps { // dense payout update
							payout[i] += reserve * c / total
						}
					}
				}
				rounds++
				booksMu.Unlock()
				record(1, time.Since(t0))
			}
			return nil
		})
}

// runBatchInprocess drives market.Broker.TradeBatchOutcomes — the sparse
// batched fast path — from the same worker count.
func runBatchInprocess(pool *tradePool, duration time.Duration, workers, batch, owners int) (marketResult, error) {
	pop, err := marketPopulation(owners)
	if err != nil {
		return marketResult{}, err
	}
	mech, err := marketMechanism()
	if err != nil {
		return marketResult{}, err
	}
	broker, err := market.NewBroker(market.Config{
		Owners: pop, Mechanism: mech, FeatureDim: marketFeatureDim, Seed: 7,
		LedgerPrealloc: 1 << 22,
	})
	if err != nil {
		return marketResult{}, err
	}
	return measure("batch_inprocess", duration, workers, batch,
		func(w int, deadline time.Time, record func(int64, time.Duration)) error {
			k := w * 31
			queries := make([]market.Query, batch)
			for time.Now().Before(deadline) {
				t0 := time.Now()
				for i := range queries {
					queries[i] = market.Query{
						Q:         pool.queries[k%len(pool.queries)],
						Valuation: pool.vals[k%len(pool.queries)],
					}
					k++
				}
				for _, o := range broker.TradeBatchOutcomes(queries) {
					if o.Err != nil {
						return o.Err
					}
				}
				record(int64(batch), time.Since(t0))
			}
			return nil
		})
}

// runMarketHTTP drives the hosted-market HTTP edge: per-trade JSON or
// batched binary.
func runMarketHTTP(pool *tradePool, cd codec, mode string, duration time.Duration, workers, batch, owners int) (marketResult, error) {
	srv := server.NewServer(nil)
	specs := make([]server.OwnerSpec, owners)
	r := randx.New(11)
	for i := range specs {
		specs[i] = server.OwnerSpec{
			Value: r.Uniform(1, 5), Range: 4,
			Contract: server.ContractSpec{Type: "tanh", Rho: 1, Eta: 10},
		}
	}
	if _, err := srv.Markets().Create(server.CreateMarketRequest{
		ID: "bench", Owners: specs, Seed: 7, Horizon: 100_000_000,
	}); err != nil {
		return marketResult{}, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	httpc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        workers * 2,
		MaxIdleConnsPerHost: workers * 2,
	}}
	perReq := batch
	path := "/trade/batch"
	if mode == "http_trade_json" {
		perReq = 1
		path = "/trade"
	}
	return measure(mode, duration, workers, perReq,
		func(w int, deadline time.Time, record func(int64, time.Duration)) error {
			k := w * 31
			url := ts.URL + "/v1/markets/bench" + path
			var (
				body []byte
				dec  binary.Decoder
			)
			trades := make([]api.TradeRequest, perReq)
			for time.Now().Before(deadline) {
				for i := range trades {
					trades[i] = pool.reqs[k%len(pool.reqs)]
					k++
				}
				var in any = &api.TradeBatchRequest{Trades: trades}
				if mode == "http_trade_json" {
					in = &trades[0]
				}
				var err error
				body, err = cd.encode(body[:0], in)
				if err != nil {
					return err
				}
				t0 := time.Now()
				hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
				if err != nil {
					return err
				}
				hreq.Header.Set("Content-Type", cd.contentType)
				hreq.Header.Set("Accept", cd.contentType)
				resp, err := httpc.Do(hreq)
				if err != nil {
					return err
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					return err
				}
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("status %d: %s", resp.StatusCode, raw)
				}
				if mode == "http_trade_json" {
					var tr api.TradeResponse
					if err := cd.decode(&dec, raw, &tr); err != nil {
						return err
					}
				} else {
					var br api.TradeBatchResponse
					if err := cd.decode(&dec, raw, &br); err != nil {
						return err
					}
					if len(br.Results) != perReq {
						return fmt.Errorf("got %d results, want %d", len(br.Results), perReq)
					}
					for _, res := range br.Results {
						if res.Error != "" {
							return fmt.Errorf("trade failed: %s", res.Error)
						}
					}
				}
				record(int64(perReq), time.Since(t0))
			}
			return nil
		})
}

// runMarket runs the market scenario and writes the report.
func runMarket(out string, duration time.Duration, workers, batch, owners, support int) error {
	rep := marketReport{
		Tool:      "cmd/servebench -scenario market",
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
		Owners:    owners,
		Support:   support,
	}
	type exp struct {
		name string
		run  func() (marketResult, error)
	}
	const poolSize = 512
	pool, err := buildTradePool(owners, support, poolSize)
	if err != nil {
		return err
	}
	exps := []exp{
		{"dense_loop", func() (marketResult, error) {
			return runDenseLoop(pool, duration, workers, owners)
		}},
		{"batch_inprocess", func() (marketResult, error) {
			return runBatchInprocess(pool, duration, workers, batch, owners)
		}},
		{"http_trade_json", func() (marketResult, error) {
			return runMarketHTTP(pool, codecs[0], "http_trade_json", duration, workers, batch, owners)
		}},
		{"http_batch_binary", func() (marketResult, error) {
			return runMarketHTTP(pool, codecs[1], "http_batch_binary", duration, workers, batch, owners)
		}},
	}
	byMode := map[string]float64{}
	for _, e := range exps {
		res, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		rep.Results = append(rep.Results, res)
		byMode[res.Mode] = res.TradesPerSec
		fmt.Printf("%-18s %9.0f trades/s  p50 %8.1fµs  p99 %8.1fµs\n",
			res.Mode, res.TradesPerSec, res.P50Micros, res.P99Micros)
	}
	if v := byMode["dense_loop"]; v > 0 {
		rep.BatchOverDense = round3(byMode["batch_inprocess"] / v)
	}
	rep.HTTPBinaryBatchTradesPerSec = round3(byMode["http_batch_binary"])
	fmt.Printf("batch fast path: %.1fx the dense per-trade loop; %.0f trades/s served over binary batch\n",
		rep.BatchOverDense, rep.HTTPBinaryBatchTradesPerSec)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
