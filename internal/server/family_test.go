package server

import (
	"math"
	"net/http"
	"testing"

	"datamarket/internal/linalg"
	"datamarket/internal/pricing"
	"datamarket/internal/randx"
)

// familyCreateRequests returns one create request per hosted family,
// sharing input dimension 2 so the same feature vectors drive all three.
func familyCreateRequests() map[pricing.Family]CreateStreamRequest {
	return map[pricing.Family]CreateStreamRequest{
		pricing.FamilyLinear: {Family: "linear", Dim: 2, Reserve: true, Threshold: 0.05},
		pricing.FamilyNonlinear: {Family: "nonlinear", Dim: 2, Reserve: true, Threshold: 0.05,
			Model: &pricing.ModelConfig{
				Link:      "exp",
				Map:       "landmark",
				Kernel:    &pricing.KernelConfig{Type: "rbf", Gamma: 0.5},
				Landmarks: [][]float64{{0, 0}, {1, 0}, {0, 1}},
			}},
		pricing.FamilySGD: {Family: "sgd", Dim: 2, Reserve: true,
			Model: &pricing.ModelConfig{Eta0: 0.5, Margin: 1.0}},
	}
}

// TestServerFamilyLifecycle is the acceptance test of the family refactor:
// brokerd creates, prices (single + batch), snapshots, and restores a
// stream of each family through the HTTP API, and family-tagged snapshots
// reject cross-family restores.
func TestServerFamilyLifecycle(t *testing.T) {
	_, c := newTestServer(t)
	snaps := make(map[pricing.Family]*pricing.Envelope)

	for fam, req := range familyCreateRequests() {
		id := string(fam)
		req.ID = id
		var info StreamInfo
		c.mustDo("POST", "/v1/streams", req, &info, http.StatusCreated)
		if info.Family != string(fam) || info.Dim != 2 {
			t.Fatalf("%s: create returned %+v", fam, info)
		}

		// Single-round pricing.
		q := c.price(id, []float64{0.5, 0.5}, 0.01, 0.8)
		if q.Decision == "skip" {
			t.Fatalf("%s: unexpected skip", fam)
		}

		// Batch pricing.
		rounds := make([]BatchPriceRound, 8)
		r := randx.New(11)
		for i := range rounds {
			x := r.OnSphere(2)
			for j := range x {
				x[j] = math.Abs(x[j]) + 0.1
			}
			v := 0.9
			rounds[i] = BatchPriceRound{Features: x, Reserve: 0.01, Valuation: &v}
		}
		var batch BatchPriceResponse
		c.mustDo("POST", "/v1/streams/"+id+"/price/batch",
			BatchPriceRequest{Rounds: rounds}, &batch, http.StatusOK)
		if len(batch.Results) != len(rounds) {
			t.Fatalf("%s: %d batch results", fam, len(batch.Results))
		}
		for i, res := range batch.Results {
			if res.Error != "" {
				t.Fatalf("%s: batch round %d: %s", fam, i, res.Error)
			}
		}

		// Stats report the family and the full round count.
		var stats StatsResponse
		c.mustDo("GET", "/v1/streams/"+id+"/stats", nil, &stats, http.StatusOK)
		if stats.Family != string(fam) {
			t.Fatalf("%s: stats family %q", fam, stats.Family)
		}
		if stats.Counters.Rounds != 1+len(rounds) {
			t.Fatalf("%s: %d rounds, want %d", fam, stats.Counters.Rounds, 1+len(rounds))
		}

		// Snapshot is family-tagged.
		var env pricing.Envelope
		c.mustDo("GET", "/v1/streams/"+id+"/snapshot", nil, &env, http.StatusOK)
		if env.Family != fam {
			t.Fatalf("%s: snapshot tagged %q", fam, env.Family)
		}
		snaps[fam] = &env

		// In-place restore rolls the stream back; restore into a fresh ID
		// recovers it, and the two agree exactly on the next round.
		c.price(id, []float64{0.4, 0.3}, 0.01, 0.8)
		c.mustDo("POST", "/v1/streams/"+id+"/restore", &env, nil, http.StatusOK)
		var recInfo StreamInfo
		c.mustDo("POST", "/v1/streams/"+id+"-recovered/restore", &env, &recInfo, http.StatusCreated)
		if recInfo.Family != string(fam) {
			t.Fatalf("%s: recovered stream family %q", fam, recInfo.Family)
		}
		qa := c.price(id, []float64{0.2, 0.7}, 0.01, 0.8)
		qb := c.price(id+"-recovered", []float64{0.2, 0.7}, 0.01, 0.8)
		if qa.Price != qb.Price || qa.Decision != qb.Decision ||
			qa.Lower != qb.Lower || qa.Upper != qb.Upper {
			t.Fatalf("%s: restored streams diverged: %+v vs %+v", fam, qa, qb)
		}
	}

	// Cross-family restores answer 409, in place and at fresh IDs the
	// family comes from the envelope (so no conflict there).
	c.mustDo("POST", "/v1/streams/linear/restore", snaps[pricing.FamilySGD], nil, http.StatusConflict)
	c.mustDo("POST", "/v1/streams/sgd/restore", snaps[pricing.FamilyNonlinear], nil, http.StatusConflict)
	c.mustDo("POST", "/v1/streams/nonlinear/restore", snaps[pricing.FamilyLinear], nil, http.StatusConflict)

	var list ListStreamsResponse
	c.mustDo("GET", "/v1/streams", nil, &list, http.StatusOK)
	if len(list.Streams) != 6 {
		t.Fatalf("listed %d streams, want 6", len(list.Streams))
	}
	for _, info := range list.Streams {
		if info.Family == "" {
			t.Fatalf("listed stream %q has no family", info.ID)
		}
	}
}

// TestServerFamilyDeletePendingConflict is the HTTP half of the
// pending-shadow regression: before SGDPoster and NonlinearMechanism had
// Pending methods, DELETE of a mid-round non-ellipsoid stream succeeded
// and silently discarded the buyer's in-flight decision.
func TestServerFamilyDeletePendingConflict(t *testing.T) {
	_, c := newTestServer(t)
	for fam, req := range familyCreateRequests() {
		id := string(fam)
		req.ID = id
		c.mustDo("POST", "/v1/streams", req, nil, http.StatusCreated)
		var q PriceResponse
		c.mustDo("POST", "/v1/streams/"+id+"/quote",
			QuoteRequest{Features: []float64{0.5, 0.5}, Reserve: 0.01}, &q, http.StatusOK)
		if q.Decision == "skip" {
			t.Fatalf("%s: unexpected skip", fam)
		}
		// Mid-round: delete conflicts, snapshot and restore are refused.
		c.mustDo("DELETE", "/v1/streams/"+id, nil, nil, http.StatusConflict)
		c.mustDo("GET", "/v1/streams/"+id+"/snapshot", nil, nil, http.StatusConflict)
		c.mustDo("POST", "/v1/streams/"+id+"/observe", ObserveRequest{Accepted: true}, nil, http.StatusOK)
		// Round closed: delete (forced path not needed) succeeds.
		c.mustDo("DELETE", "/v1/streams/"+id, nil, nil, http.StatusNoContent)
	}
}

// TestServerFamilyHTTPEquivalence drives identical round sequences through
// the HTTP batch endpoint and directly through the library factory, and
// requires bit-identical quotes, counters, and snapshot round-trips. Run
// under -race in CI.
func TestServerFamilyHTTPEquivalence(t *testing.T) {
	specs := map[pricing.Family]pricing.FamilySpec{
		pricing.FamilyNonlinear: {Family: pricing.FamilyNonlinear, Dim: 2, Reserve: true, Threshold: 0.05,
			Model: pricing.ModelConfig{
				Link:      "exp",
				Map:       "landmark",
				Kernel:    &pricing.KernelConfig{Type: "rbf", Gamma: 0.5},
				Landmarks: [][]float64{{0, 0}, {1, 0}, {0, 1}},
			}},
		pricing.FamilySGD: {Family: pricing.FamilySGD, Dim: 2, Reserve: true,
			Model: pricing.ModelConfig{Eta0: 0.5, Margin: 1.0}},
	}
	_, c := newTestServer(t)
	for fam, spec := range specs {
		id := "eq-" + string(fam)
		model := spec.Model
		c.mustDo("POST", "/v1/streams", CreateStreamRequest{
			ID: id, Family: string(spec.Family), Dim: spec.Dim, Reserve: spec.Reserve,
			Threshold: spec.Threshold, Model: &model,
		}, nil, http.StatusCreated)

		lib, err := pricing.NewFamilyPoster(spec)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		sync := pricing.NewSync(lib)

		// One batch of deterministic rounds through both paths.
		const rounds = 64
		r := randx.New(23)
		httpRounds := make([]BatchPriceRound, rounds)
		libRounds := make([]pricing.BatchRound, rounds)
		vals := make([]float64, rounds)
		for i := 0; i < rounds; i++ {
			x := r.OnSphere(2)
			for j := range x {
				x[j] = math.Abs(x[j]) + 0.1
			}
			vals[i] = 0.5 + 0.5*math.Abs(x[0])
			httpRounds[i] = BatchPriceRound{Features: x, Reserve: 0.01, Valuation: &vals[i]}
			libRounds[i] = pricing.BatchRound{X: linalg.Vector(x), Reserve: 0.01}
		}
		var resp BatchPriceResponse
		c.mustDo("POST", "/v1/streams/"+id+"/price/batch",
			BatchPriceRequest{Rounds: httpRounds}, &resp, http.StatusOK)
		libOut := sync.PriceBatch(libRounds, vals)
		for i := 0; i < rounds; i++ {
			hr, lr := resp.Results[i], libOut[i]
			if hr.Error != "" || lr.Err != nil {
				t.Fatalf("%s round %d: errors %q / %v", fam, i, hr.Error, lr.Err)
			}
			if hr.Price != lr.Quote.Price || hr.Lower != lr.Quote.Lower || hr.Upper != lr.Quote.Upper ||
				hr.Decision != lr.Quote.Decision.String() {
				t.Fatalf("%s round %d: HTTP %+v vs library %+v", fam, i, hr.PriceResponse, lr.Quote)
			}
			if hr.Accepted == nil || *hr.Accepted != lr.Accepted {
				t.Fatalf("%s round %d: accepted %v vs %v", fam, i, hr.Accepted, lr.Accepted)
			}
		}

		// Counters agree.
		var stats StatsResponse
		c.mustDo("GET", "/v1/streams/"+id+"/stats", nil, &stats, http.StatusOK)
		libCounters := sync.Counters()
		if stats.Counters != libCounters {
			t.Fatalf("%s: counters HTTP %+v vs library %+v", fam, stats.Counters, libCounters)
		}

		// The HTTP snapshot restores into a library poster that agrees
		// with the library poster on the next round.
		var env pricing.Envelope
		c.mustDo("GET", "/v1/streams/"+id+"/snapshot", nil, &env, http.StatusOK)
		restored, err := pricing.RestoreEnvelope(&env)
		if err != nil {
			t.Fatalf("%s: restoring HTTP snapshot: %v", fam, err)
		}
		x := linalg.VectorOf(0.3, 0.6)
		qa, err := restored.PostPrice(x, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		qb, _, err := sync.PriceRound(x, 0.01, -1e9)
		if err != nil {
			t.Fatal(err)
		}
		if qa != qb {
			t.Fatalf("%s: snapshot round trip diverged: %+v vs %+v", fam, qa, qb)
		}
	}
}

// TestRestoreEnforcesLandmarkCap: both restore paths (fresh ID and
// in-place) must reject envelopes whose mapped dimension exceeds MaxDim,
// exactly like create does — otherwise a restore could install an
// arbitrarily large score-space ellipsoid.
func TestRestoreEnforcesLandmarkCap(t *testing.T) {
	oversized := &pricing.Envelope{
		Version: pricing.EnvelopeVersion,
		Family:  pricing.FamilyNonlinear,
		Nonlinear: &pricing.NonlinearSnapshot{
			Dim: 1,
			Model: pricing.ModelConfig{
				Map:       "landmark",
				Kernel:    &pricing.KernelConfig{Type: "rbf", Gamma: 1},
				Landmarks: make([][]float64, MaxDim+1),
			},
		},
	}
	for i := range oversized.Nonlinear.Model.Landmarks {
		oversized.Nonlinear.Model.Landmarks[i] = []float64{0}
	}
	if _, err := restoredStream("fresh", oversized); err == nil {
		t.Fatal("fresh-ID restore accepted oversized landmark set")
	}
	reg := NewRegistry(0)
	st, err := reg.Create(CreateStreamRequest{ID: "nl", Family: "nonlinear", Dim: 1, Threshold: 0.05,
		Model: &pricing.ModelConfig{Map: "landmark",
			Kernel: &pricing.KernelConfig{Type: "rbf", Gamma: 1}, Landmarks: [][]float64{{0}}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Restore(oversized); err == nil {
		t.Fatal("in-place restore accepted oversized landmark set")
	}
}
