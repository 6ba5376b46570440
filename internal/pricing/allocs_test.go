//go:build !race

package pricing

import (
	"testing"

	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

// TestMechanismRoundZeroAllocs guards the whole per-round hot path:
// after warmup, a full PostPrice+Observe cycle — support probe, quote,
// feedback, ellipsoid cut — performs zero allocations. (Skipped under
// -race, whose instrumentation perturbs allocation counts.)
func TestMechanismRoundZeroAllocs(t *testing.T) {
	const n = 16
	m, err := New(n, 4, WithThreshold(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	r := randx.New(1)
	theta := r.OnSphere(n)
	xs := make([]linalg.Vector, 64)
	for i := range xs {
		xs[i] = r.OnSphere(n)
	}
	// Warm the lastX and ellipsoid scratch buffers.
	if _, err := m.PostPrice(xs[0], -1); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe(true); err != nil {
		t.Fatal(err)
	}

	i := 0
	if got := testing.AllocsPerRun(200, func() {
		i++
		x := xs[i%len(xs)]
		q, err := m.PostPrice(x, -1)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(Sold(q.Price, x.Dot(theta))); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("full pricing round allocated %v times, want 0", got)
	}
}

// TestSyncPosterRoundZeroAllocs guards the valuation round every served
// stream and market runs: after warmup, SyncPoster.PriceRound — lock,
// post, feedback, cut, regret record — performs zero allocations, and
// PriceBatch allocates only its result slice.
func TestSyncPosterRoundZeroAllocs(t *testing.T) {
	const n = 16
	m, err := New(n, 4, WithReserve(), WithThreshold(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSync(m)
	r := randx.New(1)
	theta := r.OnSphere(n)
	rounds := make([]BatchRound, 64)
	values := make([]float64, len(rounds))
	for i := range rounds {
		x := r.OnSphere(n)
		rounds[i] = BatchRound{X: x, Reserve: -1}
		values[i] = x.Dot(theta)
	}
	// Warm the lastX and ellipsoid scratch buffers.
	if _, _, err := s.PriceRound(rounds[0].X, -1, values[0]); err != nil {
		t.Fatal(err)
	}

	i := 0
	if got := testing.AllocsPerRun(200, func() {
		i++
		k := i % len(rounds)
		if _, _, err := s.PriceRound(rounds[k].X, rounds[k].Reserve, values[k]); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("PriceRound allocated %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		for _, o := range s.PriceBatch(rounds[:8], values[:8]) {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
		}
	}); got != 1 {
		t.Fatalf("PriceBatch allocated %v times, want 1 (its result slice)", got)
	}
}
