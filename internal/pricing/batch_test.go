package pricing

import (
	"math"
	"sync"
	"testing"

	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

// batchTestPoster builds a fresh SyncPoster around a reserve-constrained
// mechanism with deterministic parameters.
func batchTestPoster(t *testing.T, n int) *SyncPoster {
	t.Helper()
	m, err := New(n, 2*math.Sqrt(float64(n)), WithReserve(), WithThreshold(0.05))
	if err != nil {
		t.Fatal(err)
	}
	return NewSync(m)
}

// TestPriceBatchMatchesSingleRounds drives the same round sequence
// through PriceBatch and through per-round PriceRound calls on an
// identically configured mechanism. Every quote, every acceptance, and
// the final mechanism state (counters + snapshot) must agree exactly:
// a batch is k back-to-back rounds, nothing more.
func TestPriceBatchMatchesSingleRounds(t *testing.T) {
	const n, rounds = 4, 200
	r := randx.New(7)
	theta := r.OnSphere(n)
	batch := make([]BatchRound, rounds)
	vals := make([]float64, rounds)
	for i := range batch {
		batch[i] = BatchRound{X: randx.NewStream(11, uint64(i)).OnSphere(n), Reserve: -1}
		vals[i] = batch[i].X.Dot(theta)
	}

	single := batchTestPoster(t, n)
	singleQuotes := make([]Quote, rounds)
	singleAccepted := make([]bool, rounds)
	for i := range batch {
		q, acc, err := single.PriceRound(batch[i].X, batch[i].Reserve, vals[i])
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		singleQuotes[i], singleAccepted[i] = q, acc
	}

	batched := batchTestPoster(t, n)
	out := batched.PriceBatch(batch, vals)
	if len(out) != rounds {
		t.Fatalf("got %d outcomes, want %d", len(out), rounds)
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("round %d: %v", i, o.Err)
		}
		if o.Quote != singleQuotes[i] || o.Accepted != singleAccepted[i] {
			t.Fatalf("round %d diverged: batch %+v/%v, single %+v/%v",
				i, o.Quote, o.Accepted, singleQuotes[i], singleAccepted[i])
		}
	}

	cs := single.Counters()
	cb := batched.Counters()
	if cs != cb {
		t.Fatalf("counters diverged: single %+v, batch %+v", cs, cb)
	}
	es, err := single.SnapshotEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := batched.SnapshotEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	ss, sb := es.Linear, eb.Linear
	if !linalg.Vector(ss.Center).Equal(linalg.Vector(sb.Center), 0) {
		t.Fatalf("ellipsoid centers diverged:\n%v\n%v", ss.Center, sb.Center)
	}
	if !linalg.Vector(ss.Shape).Equal(linalg.Vector(sb.Shape), 0) {
		t.Fatal("ellipsoid shapes diverged")
	}
}

// TestPriceBatchPerItemError verifies that a bad round inside a batch is
// reported on its own outcome and does not poison the rounds after it.
func TestPriceBatchPerItemError(t *testing.T) {
	sp := batchTestPoster(t, 2)
	rounds := []BatchRound{
		{X: linalg.VectorOf(1, 0), Reserve: -1},
		{X: linalg.VectorOf(1, 0, 0), Reserve: -1}, // wrong dimension
		{X: linalg.VectorOf(0, 1), Reserve: -1},
	}
	out := sp.PriceBatch(rounds, []float64{1e9, 1e9, 1e9})
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("valid rounds errored: %v, %v", out[0].Err, out[2].Err)
	}
	if out[1].Err == nil {
		t.Fatal("dimension-mismatch round did not error")
	}
	c := sp.Counters()
	if c.Rounds != 2 {
		t.Fatalf("mechanism saw %d rounds, want 2", c.Rounds)
	}
}

// TestPriceBatchSkipRound checks that skip rounds inside a batch post no
// price, are not accepted even by a buyer who would pay anything, and
// leave nothing pending.
func TestPriceBatchSkipRound(t *testing.T) {
	sp := batchTestPoster(t, 2)
	rounds := []BatchRound{
		{X: linalg.VectorOf(1, 0), Reserve: 1e6}, // certain no-deal
		{X: linalg.VectorOf(1, 0), Reserve: -1},
	}
	out := sp.PriceBatch(rounds, []float64{1e9, 1e9})
	if out[0].Err != nil || out[0].Quote.Decision != DecisionSkip || out[0].Accepted {
		t.Fatalf("skip outcome wrong: %+v", out[0])
	}
	if out[1].Err != nil || out[1].Quote.Decision == DecisionSkip {
		t.Fatalf("round after skip wrong: %+v", out[1])
	}
	if sp.Pending() {
		t.Fatal("batch left a round pending")
	}
}

// TestPriceBatchConcurrent hammers one poster with concurrent batches
// (run under -race in CI). Batches serialize at the lock, so the final
// round count must be the exact total and the mechanism must stay
// well-formed.
func TestPriceBatchConcurrent(t *testing.T) {
	const n, workers, perBatch, batches = 3, 8, 16, 10
	sp := batchTestPoster(t, n)
	theta := randx.New(3).OnSphere(n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := randx.NewStream(5, uint64(w))
			for b := 0; b < batches; b++ {
				rounds := make([]BatchRound, perBatch)
				vals := make([]float64, perBatch)
				for i := range rounds {
					rounds[i] = BatchRound{X: r.OnSphere(n), Reserve: -1}
					vals[i] = rounds[i].X.Dot(theta)
				}
				out := sp.PriceBatch(rounds, vals)
				for i, o := range out {
					if o.Err != nil {
						t.Errorf("worker %d round %d: %v", w, i, o.Err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	c := sp.Counters()
	if want := workers * perBatch * batches; c.Rounds != want {
		t.Fatalf("counted %d rounds, want %d", c.Rounds, want)
	}
	if sp.Pending() {
		t.Fatal("pending round left behind")
	}
}

// TestSyncPosterPending covers the Pending accessor across the two-phase
// protocol.
func TestSyncPosterPending(t *testing.T) {
	sp := batchTestPoster(t, 2)
	if sp.Pending() {
		t.Fatal("fresh poster pending")
	}
	if _, err := sp.PostPrice(linalg.VectorOf(1, 0), -1); err != nil {
		t.Fatal(err)
	}
	if !sp.Pending() {
		t.Fatal("open round not reported pending")
	}
	if err := sp.Observe(true); err != nil {
		t.Fatal(err)
	}
	if sp.Pending() {
		t.Fatal("closed round still pending")
	}
}
