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
	q, accepted, err := sp.PriceRound(x, 0, func(Quote) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if q.Decision == DecisionSkip || !accepted {
		t.Fatalf("round 1: unexpected quote %+v accepted=%v", q, accepted)
	}

	// Round 2: reserve far above the value ceiling forces a skip. The
	// respond callback must not fire and no feedback must be pending.
	q, _, err = sp.PriceRound(x, 1e6, func(Quote) bool {
		t.Fatal("respond called on a skip round")
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if q.Decision != DecisionSkip {
		t.Fatalf("round 2: want skip, got %v", q.Decision)
	}
	if err := sp.Observe(true); err != ErrNoPendingRound {
		t.Fatalf("after skip: Observe err = %v, want ErrNoPendingRound", err)
	}

	// Round 3: pricing resumes normally — the stream is not wedged.
	q, _, err = sp.PriceRound(x, 0, func(Quote) bool { return false })
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
		q, accepted, err := sp.PriceRound(x, math.Inf(-1), func(q Quote) bool {
			return Sold(q.Price, x.Dot(theta))
		})
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
