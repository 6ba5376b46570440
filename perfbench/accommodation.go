package main

import (
	"context"
	"fmt"
	"hash"
	"math"
	"sort"
	"strings"

	"datamarket/api"
	"datamarket/client"
	"datamarket/internal/dataset"
	"datamarket/internal/feature"
	"datamarket/internal/learn"
	"datamarket/internal/linalg"
	"datamarket/internal/loadgen"
	"datamarket/internal/randx"
)

// accommodation is §V-B: Airbnb-shaped listings priced under the
// log-linear model v = exp(θ·x) with the reserve q = v^0.6, grouped into
// city × room-type streams of the nonlinear family with the exp link, as
// internal/experiment/accommodation.go sets the application up. Each op
// is one round through the SDK Flusher over JSON, the SDK default.
type accommodation struct {
	streams []string // stream ids, sorted
	creates []api.CreateStreamRequest
	rows    []linalg.Vector // standardized listing features plus a bias
	stream  []int           // listing → stream index
	value   []float64       // listing → market value exp(θ·x)
	reserve []float64       // listing → reserve exp(0.6 θ·x)
	ops     []int32         // op → listing
}

// accReserveRatio is log(q)/log(v), the middle of the paper's sweep.
const accReserveRatio = 0.6

func (a *accommodation) name() string { return "accommodation" }
func (a *accommodation) unit() string { return "rounds" }
func (a *accommodation) binary() bool { return false }

// The light rate leaves the Flusher mostly sending one round per request;
// at the loaded rate its 2ms window coalesces several. The seed served
// ~700 rounds/s closed-loop with two callers and a 4.2ms p50 open-loop at
// 6,000/s.
func (a *accommodation) shape() shape {
	return shape{lightRate: 200, loadedRate: 4000, warmup: 512, warmCalls: 32, maxOut: 4096, ring: 1 << 15}
}

func (a *accommodation) generate(seed uint64, sz sizes, ops int) error {
	ls, _, _, err := dataset.GenerateListings(dataset.AirbnbConfig{Count: sz.listings, Seed: seed, NoiseStd: 0.475})
	if err != nil {
		return err
	}
	raw := make([]linalg.Vector, len(ls))
	logPrice := make(linalg.Vector, len(ls))
	for i := range ls {
		if raw[i], err = dataset.FeaturizeListing(&ls[i]); err != nil {
			return err
		}
		logPrice[i] = ls[i].LogPrice
	}
	std, err := feature.FitStandardizer(raw)
	if err != nil {
		return err
	}
	dim := dataset.AirbnbFeatureDim + 1
	a.rows = make([]linalg.Vector, len(raw))
	for i, x := range raw {
		z, err := std.Transform(x)
		if err != nil {
			return err
		}
		row := make(linalg.Vector, dim)
		copy(row, z)
		row[dim-1] = 1
		a.rows[i] = row
	}
	// The paper re-learns the hedonic coefficients with OLS on 80% of the
	// table and prices against the fitted model.
	train, _, err := learn.TrainTestSplit(len(a.rows), 5, 1)
	if err != nil {
		return err
	}
	trX := make([]linalg.Vector, len(train))
	trY := make(linalg.Vector, len(train))
	for k, i := range train {
		trX[k], trY[k] = a.rows[i], logPrice[i]
	}
	model, err := learn.FitLinear(trX, trY, learn.FitOptions{Ridge: 1e-8})
	if err != nil {
		return err
	}
	theta := model.Coef

	segment := make([]string, len(ls))
	ids := make(map[string]int)
	for i := range ls {
		segment[i] = fmt.Sprintf("acc-%s-%s", strings.ToLower(ls[i].City), roomCode(ls[i].RoomType))
		ids[segment[i]] = 0
	}
	a.streams = make([]string, 0, len(ids))
	for id := range ids {
		a.streams = append(a.streams, id)
	}
	sort.Strings(a.streams)
	for k, id := range a.streams {
		ids[id] = k
	}
	a.stream = make([]int, len(ls))
	a.value = make([]float64, len(ls))
	a.reserve = make([]float64, len(ls))
	for i := range ls {
		a.stream[i] = ids[segment[i]]
		logV := a.rows[i].Dot(theta)
		a.value[i] = math.Exp(logV)
		a.reserve[i] = math.Exp(accReserveRatio * logV)
	}
	a.creates = make([]api.CreateStreamRequest, len(a.streams))
	for k, id := range a.streams {
		a.creates[k] = api.CreateStreamRequest{
			ID: id, Family: "nonlinear", Dim: dim, Reserve: true,
			Radius: 1.5 * theta.Norm2(), Threshold: 0.1,
			Model: &api.ModelConfig{Link: "exp"},
		}
	}
	rng := randx.NewStream(seed, 0xacc0)
	pick := loadgen.NewChooser(len(ls), 0, rng)
	a.ops = make([]int32, ops)
	for i := range a.ops {
		a.ops[i] = int32(pick.Next())
	}
	return nil
}

func roomCode(roomType string) string {
	switch roomType {
	case "Entire home/apt":
		return "entire"
	case "Private room":
		return "private"
	case "Shared room":
		return "shared"
	}
	return "other"
}

func (a *accommodation) digest(h hash.Hash64) {
	for _, c := range a.creates {
		hashString(h, c.ID)
		hashFloats(h, c.Radius)
	}
	for i, row := range a.rows {
		hashInt(h, a.stream[i])
		hashFloats(h, row...)
		hashFloats(h, a.value[i], a.reserve[i])
	}
	for _, l := range a.ops {
		hashInt(h, int(l))
	}
}

func (a *accommodation) provision(ctx context.Context, s *session) error {
	return createStreams(ctx, s, a.creates)
}

type accCaller struct {
	a *accommodation
	s *session
}

func (a *accommodation) newCaller(s *session) caller { return &accCaller{a: a, s: s} }

func (c *accCaller) issue(ctx context.Context, op int) opResult {
	a := c.a
	l := a.ops[op]
	ctx, end := c.s.tr.beginSDK(ctx, op)
	resp, err := c.s.flusher.Price(ctx, a.streams[a.stream[l]], a.rows[l], a.reserve[l], a.value[l])
	if err != nil {
		end(0)
		return failure(0, "price: %v", err)
	}
	end(1)
	if why := checkRound(resp.Price, resp.Decision, resp.Accepted, a.reserve[l], a.value[l], true); why != "" {
		return failure(1, "%s", why)
	}
	return opResult{units: 1}
}

func (a *accommodation) books(ctx context.Context, c *client.Client) (books, error) {
	return streamBooks(ctx, c, a.streams)
}

// streamBooks sums the stats of pricing streams.
func streamBooks(ctx context.Context, c *client.Client, ids []string) (books, error) {
	var b books
	for _, id := range ids {
		st, err := c.Stats(ctx, id)
		if err != nil {
			return b, fmt.Errorf("stats of stream %q: %w", id, err)
		}
		b.rounds += st.Regret.Rounds
		b.regret += st.Regret.CumulativeRegret
		b.value += st.Regret.CumulativeValue
		b.cuts += st.Counters.CutsApplied
		b.skips += st.Counters.Skips
		b.mechRuns += st.Counters.Rounds
	}
	return b, nil
}
