package pricing

import (
	"errors"
	"math"
	"testing"

	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

// TestSyncPosterSkipRound is the regression test for the skip-path
// feedback hazard: a DecisionSkip round must not leave the mechanism
// pending (which would wedge the stream with ErrPendingRound forever).
func TestSyncPosterSkipRound(t *testing.T) {
	inner, err := New(2, 1, WithReserve(), WithThreshold(0.05))
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSync(inner)
	x := linalg.VectorOf(1, 0)

	// Round 1: a normal exploratory round.
	q, accepted, err := sp.PriceRound(x, 0, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if q.Decision == DecisionSkip || !accepted {
		t.Fatalf("round 1: unexpected quote %+v accepted=%v", q, accepted)
	}

	// Round 2: reserve far above the value ceiling forces a skip. The
	// buyer cannot accept and no feedback must be pending.
	q, accepted, err = sp.PriceRound(x, 1e6, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if q.Decision != DecisionSkip || accepted {
		t.Fatalf("round 2: want an unaccepted skip, got %v accepted=%v", q.Decision, accepted)
	}
	if err := sp.Observe(true); err != ErrNoPendingRound {
		t.Fatalf("after skip: Observe err = %v, want ErrNoPendingRound", err)
	}

	// Round 3: pricing resumes normally — the stream is not wedged.
	q, _, err = sp.PriceRound(x, 0, -1e9)
	if err != nil {
		t.Fatalf("round 3 after skip: %v", err)
	}
	if q.Decision == DecisionSkip {
		t.Fatalf("round 3: unexpected skip")
	}
	c := inner.Counters()
	if c.Rounds != 3 || c.Skips != 1 || c.Accepts != 1 || c.Rejects != 1 {
		t.Fatalf("counters after skip round: %+v", c)
	}
}

// TestSyncPosterSnapshotRestore exercises the wrapper-level envelope
// snapshot and the in-place restore used by server-hosted streams.
func TestSyncPosterSnapshotRestore(t *testing.T) {
	const n = 3
	inner, err := New(n, 2, WithThreshold(0.05))
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSync(inner)
	r := randx.New(7)
	theta := r.OnSphere(n)
	price := func(x linalg.Vector) (Quote, bool) {
		q, accepted, err := sp.PriceRound(x, 0, x.Dot(theta))
		if err != nil {
			t.Fatal(err)
		}
		return q, accepted
	}
	for i := 0; i < 50; i++ {
		price(r.OnSphere(n))
	}
	env, err := sp.SnapshotEnvelope()
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the stream past the snapshot, then roll it back in place.
	for i := 0; i < 25; i++ {
		price(r.OnSphere(n))
	}
	if err := sp.RestoreEnvelopeSnapshot(env); err != nil {
		t.Fatal(err)
	}
	after, err := sp.SnapshotEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	if after.Linear.Counters != env.Linear.Counters {
		t.Fatalf("restored counters %+v, want %+v", after.Linear.Counters, env.Linear.Counters)
	}

	// A reference mechanism restored from the same snapshot must agree
	// with the rolled-back stream on subsequent rounds exactly.
	ref, err := RestoreEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		x := r.OnSphere(n)
		got, _ := price(x)
		want, err := ref.PostPrice(x, math.Inf(-1))
		if err != nil {
			t.Fatal(err)
		}
		if want.Decision != DecisionSkip {
			ref.Observe(Sold(want.Price, x.Dot(theta)))
		}
		if got.Decision != want.Decision || math.Abs(got.Price-want.Price) > 1e-12 {
			t.Fatalf("round %d diverged after restore: %+v vs %+v", i, got, want)
		}
	}

	// A corrupt snapshot must not replace the live mechanism.
	badLinear := *env.Linear
	badLinear.Threshold = -1
	bad := *env
	bad.Linear = &badLinear
	if err := sp.RestoreEnvelopeSnapshot(&bad); err == nil {
		t.Fatal("expected restore error for corrupt snapshot")
	}
	if _, err := sp.PostPrice(r.OnSphere(n), math.Inf(-1)); err != nil {
		t.Fatalf("stream unusable after failed restore: %v", err)
	}
	// Restoring while that round is still pending would discard the
	// buyer's in-flight decision — it must be refused.
	if err := sp.RestoreEnvelopeSnapshot(env); !errors.Is(err, ErrPendingRound) {
		t.Fatalf("mid-round restore: err = %v, want ErrPendingRound", err)
	}
	if err := sp.Observe(true); err != nil {
		t.Fatalf("pending round lost after refused restore: %v", err)
	}
	if err := sp.RestoreEnvelopeSnapshot(env); err != nil {
		t.Fatalf("restore between rounds: %v", err)
	}
}

// TestSyncPosterRecordsValuationRounds: the regret tracker holds exactly
// the valuation rounds that priced without error — skips included — and
// agrees with a Tracker fed the same rounds. Failed rounds and two-phase
// rounds (which carry no valuation) record nothing.
func TestSyncPosterRecordsValuationRounds(t *testing.T) {
	sp := batchTestPoster(t, 2)
	want := NewTracker()
	x := linalg.VectorOf(0.6, 0.8)
	q, _, err := sp.PriceRound(x, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	want.Record(0.9, 0.1, q)
	if _, _, err := sp.PriceRound(linalg.VectorOf(1, 0, 0), 0.1, 0.9); err == nil {
		t.Fatal("dimension-mismatch round did not error")
	}
	rounds := []BatchRound{
		{X: x, Reserve: 0.2},
		{X: linalg.VectorOf(1, 0, 0), Reserve: 0.2}, // wrong dimension
		{X: x, Reserve: 1e6},                        // certain skip
		{X: linalg.VectorOf(0, 1), Reserve: 0.3},
	}
	vals := []float64{0.5, 0.5, 2, 0.7}
	for i, o := range sp.PriceBatch(rounds, vals) {
		if (o.Err != nil) != (i == 1) {
			t.Fatalf("batch round %d: err = %v", i, o.Err)
		}
		if o.Err == nil {
			want.Record(vals[i], rounds[i].Reserve, o.Quote)
		}
	}
	if q, err := sp.PostPrice(x, 0.1); err != nil {
		t.Fatal(err)
	} else if q.Decision != DecisionSkip {
		if err := sp.Observe(true); err != nil {
			t.Fatal(err)
		}
	}
	c, got := sp.Books()
	if got != want.State() {
		t.Fatalf("tracker state %+v, want %+v", got, want.State())
	}
	if got.Regret.N != 4 || c.Rounds != 5 {
		t.Fatalf("recorded %d rounds with counters %+v, want 4 recorded of 5 priced", got.Regret.N, c)
	}
}

// TestSyncPosterRestoreRegret: the regret travels with the mechanism.
// A snapshot carries it through JSON and an in-place restore rolls it
// back; RestoreSync rebuilds it; an envelope without Regret resets it;
// and a refused restore, cross-family or mid-round, leaves it as it was.
func TestSyncPosterRestoreRegret(t *testing.T) {
	sp := batchTestPoster(t, 2)
	x := linalg.VectorOf(0.6, 0.8)
	price := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, _, err := sp.PriceRound(x, 0.1, 0.9); err != nil {
				t.Fatal(err)
			}
		}
	}
	price(5)
	snap, err := sp.SnapshotEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	_, at := sp.Books()
	if snap.Regret == nil || *snap.Regret != at || at.Regret.N != 5 {
		t.Fatalf("snapshot regret %+v, want %+v over 5 rounds", snap.Regret, at)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	env, err := DecodeEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}

	price(3)
	if err := sp.RestoreEnvelopeSnapshot(env); err != nil {
		t.Fatal(err)
	}
	if _, got := sp.Books(); got != at {
		t.Fatalf("restored regret %+v, want %+v", got, at)
	}
	fresh, err := RestoreSync(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, got := fresh.Books(); got != at {
		t.Fatalf("RestoreSync regret %+v, want %+v", got, at)
	}

	price(2)
	_, before := sp.Books()
	sgd, err := NewFamilyPoster(FamilySpec{Family: FamilySGD, Dim: 2, Model: ModelConfig{Eta0: 0.5, Margin: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sgdEnv, err := NewSync(sgd).SnapshotEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.RestoreEnvelopeSnapshot(sgdEnv); !errors.Is(err, ErrFamilyMismatch) {
		t.Fatalf("cross-family restore: err = %v, want ErrFamilyMismatch", err)
	}
	if q, err := sp.PostPrice(x, -1); err != nil || q.Decision == DecisionSkip {
		t.Fatalf("opening a two-phase round: %+v, %v", q, err)
	}
	if err := sp.RestoreEnvelopeSnapshot(env); !errors.Is(err, ErrPendingRound) {
		t.Fatalf("mid-round restore: err = %v, want ErrPendingRound", err)
	}
	if _, got := sp.Books(); got != before {
		t.Fatalf("refused restores changed the regret to %+v, want %+v", got, before)
	}
	if err := sp.Observe(true); err != nil {
		t.Fatal(err)
	}

	bare := *env
	bare.Regret = nil
	if err := sp.RestoreEnvelopeSnapshot(&bare); err != nil {
		t.Fatal(err)
	}
	if _, got := sp.Books(); got != NewTracker().State() {
		t.Fatalf("restore without Regret left %+v, want an empty tracker", got)
	}
}

// TestSyncPosterRejectsNonFiniteRound: a valuation round with a
// non-finite reserve or valuation fails before the mechanism runs, in
// PriceRound and in PriceBatch alike, and leaves counters and regret
// untouched. A two-phase quote still takes any reserve.
func TestSyncPosterRejectsNonFiniteRound(t *testing.T) {
	sp := batchTestPoster(t, 2)
	x := linalg.VectorOf(0.6, 0.8)
	if _, _, err := sp.PriceRound(x, 0.1, 0.9); err != nil {
		t.Fatal(err)
	}
	c0, r0 := sp.Books()
	for _, tc := range []struct{ reserve, valuation float64 }{
		{math.Inf(-1), 0.9}, {math.Inf(1), 0.9}, {math.NaN(), 0.9},
		{0.1, math.Inf(1)}, {0.1, math.Inf(-1)}, {0.1, math.NaN()},
	} {
		if _, _, err := sp.PriceRound(x, tc.reserve, tc.valuation); err == nil {
			t.Errorf("PriceRound(reserve %v, valuation %v) did not fail", tc.reserve, tc.valuation)
		}
		out := sp.PriceBatch([]BatchRound{{X: x, Reserve: tc.reserve}}, []float64{tc.valuation})
		if out[0].Err == nil {
			t.Errorf("PriceBatch(reserve %v, valuation %v) did not fail", tc.reserve, tc.valuation)
		}
		if c, r := sp.Books(); c != c0 || r != r0 {
			t.Fatalf("reserve %v, valuation %v: books moved to %+v, %+v", tc.reserve, tc.valuation, c, r)
		}
	}
	if _, err := sp.PostPrice(x, math.Inf(-1)); err != nil {
		t.Fatalf("two-phase quote with reserve -Inf: %v", err)
	}
}
