package datamarket_test

import (
	"math"
	"testing"

	"datamarket"
	"datamarket/internal/privacy"
	"datamarket/internal/randx"
)

// TestFacadeEndToEnd exercises the public API the way the README's
// quickstart does: a mechanism with reserve pricing a synthetic stream.
func TestFacadeEndToEnd(t *testing.T) {
	const n, T = 8, 2000
	m, err := datamarket.NewMechanism(n, 2*math.Sqrt(n),
		datamarket.WithReserve(),
		datamarket.WithThreshold(datamarket.DefaultThreshold(n, T, 0)))
	if err != nil {
		t.Fatal(err)
	}
	r := randx.New(1)
	theta := r.NormalVector(n, 1)
	for i := range theta {
		theta[i] = math.Abs(theta[i])
	}
	theta.Normalize()
	theta.Scale(math.Sqrt(2 * n))
	tracker := datamarket.NewTracker()
	for i := 0; i < T; i++ {
		x := r.OnSphere(n)
		for j := range x {
			x[j] = math.Abs(x[j])
		}
		v := x.Dot(theta)
		reserve := 0.8 * v
		quote, err := m.PostPrice(x, reserve)
		if err != nil {
			t.Fatal(err)
		}
		if quote.Decision != datamarket.DecisionSkip {
			if err := m.Observe(datamarket.Sold(quote.Price, v)); err != nil {
				t.Fatal(err)
			}
		}
		tracker.Record(v, reserve, quote)
	}
	if tracker.RegretRatio() > 0.2 {
		t.Fatalf("facade mechanism regret ratio %v", tracker.RegretRatio())
	}
	if m.Counters().Rounds != T {
		t.Fatalf("rounds = %d", m.Counters().Rounds)
	}
}

func TestFacadeBrokerLoop(t *testing.T) {
	contract, err := privacy.NewTanhContract(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	owners := make([]datamarket.Owner, 30)
	r := randx.New(2)
	for i := range owners {
		owners[i] = datamarket.Owner{
			ID: i, Value: r.Uniform(1, 5), Range: 4.5, Contract: contract,
		}
	}
	mech, err := datamarket.NewMechanism(4, 4,
		datamarket.WithReserve(), datamarket.WithThreshold(0.05))
	if err != nil {
		t.Fatal(err)
	}
	broker, err := datamarket.NewBroker(datamarket.BrokerConfig{
		Owners: owners, Mechanism: datamarket.NewSyncPoster(mech), FeatureDim: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		weights := r.NormalVector(30, 1)
		q, err := privacy.NewLinearQuery(weights, 1)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := broker.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		tx, err := broker.Trade(datamarket.Query{Q: q, Valuation: ctx.Reserve * 1.3})
		if err != nil {
			t.Fatal(err)
		}
		if tx.Sold && tx.Profit < -1e-9 {
			t.Fatalf("negative profit %v", tx.Profit)
		}
	}
	if broker.TotalProfit() < 0 {
		t.Fatal("negative total profit")
	}
}

func TestFacadeNonlinearAndHelpers(t *testing.T) {
	nm, err := datamarket.NewNonlinearMechanism(datamarket.LogLinearModel(), 3, 2,
		datamarket.WithThreshold(0.01))
	if err != nil {
		t.Fatal(err)
	}
	q, err := nm.PostPrice(datamarket.Vector{1, 0, 0}, math.Inf(-1))
	if err != nil {
		t.Fatal(err)
	}
	if q.Price <= 0 {
		t.Fatalf("log-linear price must be positive, got %v", q.Price)
	}
	nm.Observe(true)

	iv, err := datamarket.NewIntervalMechanism(0, 2, datamarket.WithThreshold(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iv.PostPrice(1, 0); err != nil {
		t.Fatal(err)
	}
	iv.Observe(false)

	if datamarket.SingleRoundRegret(5, 1, 6) != 5 {
		t.Fatal("regret helper wrong")
	}
	b := datamarket.NewRiskAverse()
	quote, err := b.PostPrice(datamarket.Vector{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if quote.Price != 2 {
		t.Fatalf("baseline price %v", quote.Price)
	}
	b.Observe(true)
	var _ datamarket.Poster = b
}

// TestFacadeFamilyAPI exercises the exported family factory and envelope
// round trip.
func TestFacadeFamilyAPI(t *testing.T) {
	if got := datamarket.Families(); len(got) != 3 {
		t.Fatalf("Families() = %v", got)
	}
	fp, err := datamarket.NewFamilyPoster(datamarket.FamilySpec{
		Family: datamarket.FamilySGD, Dim: 2, Reserve: true,
		Model: datamarket.ModelConfig{Eta0: 0.5, Margin: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Family() != datamarket.FamilySGD {
		t.Fatalf("family = %q", fp.Family())
	}
	q, err := fp.PostPrice(datamarket.Vector{0.4, 0.6}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !fp.Pending() {
		t.Fatal("not pending after PostPrice")
	}
	if err := fp.Observe(datamarket.Sold(q.Price, 0.8)); err != nil {
		t.Fatal(err)
	}
	env, err := fp.SnapshotEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := datamarket.DecodeEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := datamarket.RestoreFamilyPoster(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Counters() != fp.Counters() {
		t.Fatalf("counters %+v vs %+v", restored.Counters(), fp.Counters())
	}
	// A nonlinear model built from config matches the typed constructor.
	m, err := datamarket.BuildModel(datamarket.ModelConfig{Link: "exp"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Link.Name() != datamarket.LogLinearModel().Link.Name() {
		t.Fatalf("link %q", m.Link.Name())
	}
}
