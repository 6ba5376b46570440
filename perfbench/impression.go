package main

import (
	"context"
	"fmt"
	"hash"
	"math"

	"datamarket/api"
	"datamarket/client"
	"datamarket/internal/dataset"
	"datamarket/internal/learn"
	"datamarket/internal/linalg"
	"datamarket/internal/loadgen"
	"datamarket/internal/randx"
)

// impression is §V-C: hashed Avazu-shaped CTR vectors priced without a
// reserve on Zipf-popular linear streams, each op one PriceBatch over the
// binary codec. Valuations are the hidden model's click probabilities,
// as internal/loadgen's impression scenario draws them.
type impression struct {
	streams []string
	creates []api.CreateStreamRequest
	xs      [][]float64 // impression pool
	vals    []float64   // pool → valuation
	stream  []int32     // op → stream index
	offset  []int32     // op → first pool row of its batch
	batch   int
}

// scenarioHorizon is internal/loadgen's stream horizon: long enough that
// no run exhausts a stream's threshold schedule.
const scenarioHorizon = 10_000_000

func (m *impression) name() string { return "impression" }
func (m *impression) unit() string { return "rounds" }
func (m *impression) binary() bool { return true }

// The seed priced 19–25k rounds/s closed-loop on two cores, ~300–390
// batches/s; the loaded rate is about half of that and the light rate a
// quarter, enough samples for a light-phase median.
func (m *impression) shape() shape {
	return shape{lightRate: 80, loadedRate: 160, warmup: 32, warmCalls: 2, maxOut: 64, ring: 4096}
}

func (m *impression) generate(seed uint64, sz sizes, ops int) error {
	src, err := dataset.NewAvazuStream(dataset.AvazuConfig{
		HashDim: sz.hashDim, ActiveWeights: min(21, sz.hashDim-1), Seed: seed,
	})
	if err != nil {
		return err
	}
	truth := src.Truth()
	m.xs = make([][]float64, sz.pool)
	m.vals = make([]float64, sz.pool)
	for i := range m.xs {
		_, x := src.Next()
		m.xs[i] = x
		m.vals[i] = 1 / (1 + math.Exp(-x.Dot(truth)))
	}
	// The knowledge set must contain the market-value model (‖θ*‖ ≤ R).
	// As for accommodation, the linear model is re-learned with OLS and
	// the radius bounds it with room to spare.
	rows := make([]linalg.Vector, len(m.xs))
	for i, x := range m.xs {
		rows[i] = x
	}
	model, err := learn.FitLinear(rows, m.vals, learn.FitOptions{Ridge: 1e-8})
	if err != nil {
		return err
	}
	radius := 1.5 * model.Coef.Norm2()
	m.streams = make([]string, sz.streams)
	m.creates = make([]api.CreateStreamRequest, sz.streams)
	for i := range m.streams {
		m.streams[i] = fmt.Sprintf("imp-%03d", i)
		m.creates[i] = api.CreateStreamRequest{
			ID: m.streams[i], Family: "linear", Dim: sz.hashDim, Radius: radius, Horizon: scenarioHorizon,
		}
	}
	rng := randx.NewStream(seed, 0x1249)
	pick := loadgen.NewChooser(sz.streams, 1, rng)
	m.stream = make([]int32, ops)
	m.offset = make([]int32, ops)
	for i := range m.stream {
		m.stream[i] = int32(pick.Next())
		m.offset[i] = int32(rng.Intn(sz.pool))
	}
	m.batch = sz.batch
	return nil
}

func (m *impression) digest(h hash.Hash64) {
	for _, c := range m.creates {
		hashString(h, c.ID)
		hashFloats(h, c.Radius)
	}
	for i, x := range m.xs {
		hashFloats(h, x...)
		hashFloats(h, m.vals[i])
	}
	for i := range m.stream {
		hashInt(h, int(m.stream[i]))
		hashInt(h, int(m.offset[i]))
	}
	hashInt(h, m.batch)
}

func (m *impression) provision(ctx context.Context, s *session) error {
	return createStreams(ctx, s, m.creates)
}

func createStreams(ctx context.Context, s *session, reqs []api.CreateStreamRequest) error {
	for _, req := range reqs {
		sctx, end := s.tr.beginSDK(ctx, -1)
		_, err := s.c.CreateStream(sctx, req)
		end(0)
		if err != nil {
			return fmt.Errorf("creating stream %q: %w", req.ID, err)
		}
	}
	return nil
}

// rounds fills one op's batch from the pool: consecutive rows from the
// op's offset, wrapping.
func (m *impression) rounds(op int, dst []api.BatchPriceRound) []api.BatchPriceRound {
	dst = dst[:0]
	for k := 0; k < m.batch; k++ {
		i := (int(m.offset[op]) + k) % len(m.xs)
		dst = append(dst, api.BatchPriceRound{Features: m.xs[i], Valuation: &m.vals[i]})
	}
	return dst
}

type impCaller struct {
	m      *impression
	s      *session
	rounds []api.BatchPriceRound
}

func (m *impression) newCaller(s *session) caller {
	return &impCaller{m: m, s: s, rounds: make([]api.BatchPriceRound, 0, m.batch)}
}

func (c *impCaller) issue(ctx context.Context, op int) opResult {
	m := c.m
	c.rounds = m.rounds(op, c.rounds)
	ctx, end := c.s.tr.beginSDK(ctx, op)
	results, err := c.s.c.PriceBatch(ctx, m.streams[m.stream[op]], c.rounds)
	if err != nil {
		end(0)
		return failure(0, "price batch: %v", err)
	}
	units := 0
	for _, r := range results {
		if r.Error == "" {
			units++
		}
	}
	end(units)
	if len(results) != len(c.rounds) {
		return failure(units, "%d results for %d rounds", len(results), len(c.rounds))
	}
	for k, r := range results {
		if r.Error != "" {
			return failure(units, "round failed: %s", r.Error)
		}
		if why := checkRound(r.Price, r.Decision, r.Accepted, 0, *c.rounds[k].Valuation, false); why != "" {
			return failure(units, "%s", why)
		}
	}
	return opResult{units: units}
}

func (m *impression) books(ctx context.Context, c *client.Client) (books, error) {
	return streamBooks(ctx, c, m.streams)
}
