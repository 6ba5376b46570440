package main

// Replays of a traced run's recorded inputs through the public functions
// of the layers below the handler, single-threaded and after the broker
// is shut down, so each layer's cost per unit is measured alone: the
// server-side codec, server.Registry.Create plus Stream.PriceBatch, and
// server.MarketRegistry.Create plus HostedMarket.Broker().TradeBatchOutcomes.
// The warm-up's requests are replayed first, untimed, so every mechanism
// starts the timed part in the state the broker was in.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"datamarket/api"
	"datamarket/api/binary"
	"datamarket/internal/linalg"
	"datamarket/internal/market"
	"datamarket/internal/pricing"
	"datamarket/internal/privacy"
	"datamarket/internal/server"
)

// layerTimes are the replays' totals over the fixed-count phases; a layer
// a workload does not run stays zero.
type layerTimes struct {
	decode, encode float64 // ns
	codecUnits     int
	pricing        float64 // ns
	rounds         int
	market         float64 // ns
	trades         int
	repeatShare    float64
}

type replayer interface {
	replay(warm, fixed []hotRequest) (layerTimes, error)
}

func nanos(d time.Duration) float64 { return float64(d) }

// timeJSONCodec times what the server's JSON path does with a hot body:
// readJSON's strict decode and writeJSON's encoder.
func timeJSONCodec(lt *layerTimes, req, resp []byte, dstReq, dstResp any) error {
	t0 := time.Now()
	dec := json.NewDecoder(bytes.NewReader(req))
	dec.DisallowUnknownFields()
	err := dec.Decode(dstReq)
	lt.decode += nanos(time.Since(t0))
	if err != nil {
		return fmt.Errorf("decoding a recorded request: %w", err)
	}
	if err := json.Unmarshal(resp, dstResp); err != nil {
		return fmt.Errorf("decoding a recorded response: %w", err)
	}
	var buf bytes.Buffer
	t0 = time.Now()
	err = json.NewEncoder(&buf).Encode(dstResp)
	lt.encode += nanos(time.Since(t0))
	return err
}

// binaryCodec times what the server's binary path does with a hot body:
// a pooled Decoder's DecodeInto and Append into a reused buffer.
type binaryCodec struct {
	dec   binary.Decoder
	frame []byte
	out   []byte
}

func (c *binaryCodec) time(lt *layerTimes, req any, dstReq any, resp []byte, dstResp any) error {
	var err error
	if c.frame, err = binary.Append(c.frame[:0], req); err != nil {
		return fmt.Errorf("framing a recorded request: %w", err)
	}
	t0 := time.Now()
	err = c.dec.DecodeInto(c.frame, dstReq)
	lt.decode += nanos(time.Since(t0))
	if err != nil {
		return fmt.Errorf("decoding a recorded request: %w", err)
	}
	if err := binary.Decode(resp, dstResp); err != nil {
		return fmt.Errorf("decoding a recorded response: %w", err)
	}
	t0 = time.Now()
	c.out, err = binary.Append(c.out[:0], dstResp)
	lt.encode += nanos(time.Since(t0))
	return err
}

// priceTimed runs one stream batch and adds its time when timed.
func priceTimed(lt *layerTimes, st *server.Stream, rounds []pricing.BatchRound, vals []float64, timed bool) error {
	t0 := time.Now()
	outs := st.PriceBatch(rounds, vals)
	if timed {
		lt.pricing += nanos(time.Since(t0))
		lt.rounds += len(rounds)
	}
	for _, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("replayed round on %q: %w", st.ID(), o.Err)
		}
	}
	return nil
}

func newRegistry(reqs ...api.CreateStreamRequest) (*server.Registry, error) {
	reg := server.NewRegistry(server.DefaultShards)
	for _, req := range reqs {
		if _, err := reg.Create(req); err != nil {
			return nil, fmt.Errorf("replay registry: %w", err)
		}
	}
	return reg, nil
}

func (a *accommodation) flusherKey(op int) roundKey {
	l := a.ops[op]
	return roundKey{a.streams[a.stream[l]], math.Float64bits(a.value[l])}
}

// replay of accommodation works from the recorded Flusher batches: which
// rounds shared a request is decided at run time.
func (a *accommodation) replay(warm, fixed []hotRequest) (layerTimes, error) {
	lt := layerTimes{repeatShare: math.NaN()}
	for _, h := range fixed {
		var req api.MultiBatchPriceRequest
		var resp api.BatchPriceResponse
		if err := timeJSONCodec(&lt, h.req, h.resp, &req, &resp); err != nil {
			return lt, err
		}
		lt.codecUnits += len(req.Rounds)
	}
	reg, err := newRegistry(a.creates...)
	if err != nil {
		return lt, err
	}
	for phase, reqs := range [][]hotRequest{warm, fixed} {
		for _, h := range reqs {
			var req api.MultiBatchPriceRequest
			if err := json.Unmarshal(h.req, &req); err != nil {
				return lt, fmt.Errorf("decoding a recorded request: %w", err)
			}
			// The server prices a batch's rounds grouped by stream, in
			// request order within a stream.
			var order []string
			groups := make(map[string][]api.MultiBatchRound)
			for _, rd := range req.Rounds {
				if _, ok := groups[rd.StreamID]; !ok {
					order = append(order, rd.StreamID)
				}
				groups[rd.StreamID] = append(groups[rd.StreamID], rd)
			}
			for _, id := range order {
				st, err := reg.Get(id)
				if err != nil {
					return lt, err
				}
				rounds := make([]pricing.BatchRound, len(groups[id]))
				vals := make([]float64, len(groups[id]))
				for k, rd := range groups[id] {
					rounds[k] = pricing.BatchRound{X: linalg.Vector(rd.Features), Reserve: rd.Reserve}
					vals[k] = *rd.Valuation
				}
				if err := priceTimed(&lt, st, rounds, vals, phase == 1); err != nil {
					return lt, err
				}
			}
		}
	}
	return lt, nil
}

// replay of impression rebuilds each batch from the op's inputs.
func (m *impression) replay(warm, fixed []hotRequest) (layerTimes, error) {
	lt := layerTimes{repeatShare: math.NaN()}
	var (
		codec  binaryCodec
		rounds []api.BatchPriceRound
	)
	for _, h := range fixed {
		rounds = m.rounds(h.ops[0], rounds)
		var req api.BatchPriceRequest
		var resp api.BatchPriceResponse
		if err := codec.time(&lt, &api.BatchPriceRequest{Rounds: rounds}, &req, h.resp, &resp); err != nil {
			return lt, err
		}
		lt.codecUnits += len(rounds)
	}
	reg, err := newRegistry(m.creates...)
	if err != nil {
		return lt, err
	}
	prs := make([]pricing.BatchRound, m.batch)
	vals := make([]float64, m.batch)
	for phase, reqs := range [][]hotRequest{warm, fixed} {
		for _, h := range reqs {
			op := h.ops[0]
			st, err := reg.Get(m.streams[m.stream[op]])
			if err != nil {
				return lt, err
			}
			rounds = m.rounds(op, rounds)
			for k, rd := range rounds {
				prs[k] = pricing.BatchRound{X: linalg.Vector(rd.Features)}
				vals[k] = *rd.Valuation
			}
			if err := priceTimed(&lt, st, prs, vals, phase == 1); err != nil {
				return lt, err
			}
		}
	}
	return lt, nil
}

// replay of ratings rebuilds each batch from the op's inputs. Its
// pricing replay feeds a stream the market's own mechanism spec with the
// features and reserves the market prepares for the same queries.
func (r *ratings) replay(warm, fixed []hotRequest) (layerTimes, error) {
	var lt layerTimes
	var (
		codec  binaryCodec
		d      = r.newDense()
		trades []api.TradeRequest
	)
	for _, h := range fixed {
		trades = r.trades(h.ops[0], d, trades)
		var req api.TradeBatchRequest
		var resp api.TradeBatchResponse
		if err := codec.time(&lt, &api.TradeBatchRequest{Trades: trades}, &req, h.resp, &resp); err != nil {
			return lt, err
		}
		lt.codecUnits += len(trades)
	}

	seen := make(map[int32]bool)
	repeats, total := 0, 0
	for phase, reqs := range [][]hotRequest{warm, fixed} {
		for _, h := range reqs {
			for k := 0; k < r.batch; k++ {
				q := r.query[h.ops[0]*r.batch+k]
				if phase == 1 {
					total++
					if seen[q] {
						repeats++
					}
				}
				seen[q] = true
			}
		}
	}
	lt.repeatShare = float64(repeats) / float64(total)

	traded, err := server.NewMarketRegistry().Create(r.create)
	if err != nil {
		return lt, fmt.Errorf("replay market: %w", err)
	}
	prepared, err := server.NewMarketRegistry().Create(r.create)
	if err != nil {
		return lt, fmt.Errorf("replay market: %w", err)
	}
	reg, err := newRegistry(api.CreateStreamRequest{
		ID: "ratings-mechanism", Family: r.create.Family, Dim: prepared.Broker().FeatureDim(),
		Reserve: true, Horizon: r.create.Horizon,
	})
	if err != nil {
		return lt, err
	}
	st, err := reg.Get("ratings-mechanism")
	if err != nil {
		return lt, err
	}
	queries := make([]market.Query, r.batch)
	rounds := make([]pricing.BatchRound, r.batch)
	vals := make([]float64, r.batch)
	for phase, reqs := range [][]hotRequest{warm, fixed} {
		for _, h := range reqs {
			op := h.ops[0]
			for k := range queries {
				// As the server builds a query from the dense weights it
				// decoded.
				q, err := privacy.NewLinearQueryShared(d.fill(r, op, k), ratingsNoise)
				if err != nil {
					return lt, err
				}
				queries[k] = market.Query{Q: q, Valuation: r.value[op*r.batch+k]}
				qc, err := prepared.Broker().Prepare(q)
				if err != nil {
					return lt, err
				}
				rounds[k] = pricing.BatchRound{X: qc.Features, Reserve: qc.Reserve}
				vals[k] = queries[k].Valuation
			}
			t0 := time.Now()
			outs := traded.Broker().TradeBatchOutcomes(queries)
			if phase == 1 {
				lt.market += nanos(time.Since(t0))
				lt.trades += len(queries)
			}
			for _, o := range outs {
				if o.Err != nil {
					return lt, fmt.Errorf("replayed trade: %w", o.Err)
				}
			}
			if err := priceTimed(&lt, st, rounds, vals, phase == 1); err != nil {
				return lt, err
			}
		}
	}
	return lt, nil
}
