package pricing

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

func TestNewSGDValidation(t *testing.T) {
	if _, err := NewSGD(0, 0.1, 0.1, false); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := NewSGD(2, 0, 0.1, false); err == nil {
		t.Fatal("expected eta error")
	}
	if _, err := NewSGD(2, 0.1, -1, false); err == nil {
		t.Fatal("expected margin error")
	}
}

func TestSGDProtocol(t *testing.T) {
	s, _ := NewSGD(2, 0.1, 0.5, true)
	if err := s.Observe(true); err != ErrNoPendingRound {
		t.Fatalf("observe with no round: %v", err)
	}
	if _, err := s.PostPrice(linalg.VectorOf(1), 0); err == nil {
		t.Fatal("expected dimension error")
	}
	q, err := s.PostPrice(linalg.VectorOf(1, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	// θ̂ starts at zero: the reserve must bind.
	if !q.ReserveBinding || q.Price != 2 {
		t.Fatalf("quote = %+v", q)
	}
	if _, err := s.PostPrice(linalg.VectorOf(1, 0), 0); err != ErrPendingRound {
		t.Fatalf("double post: %v", err)
	}
	if err := s.Observe(true); err != nil {
		t.Fatal(err)
	}
	// Acceptance raises the estimate along x.
	if s.Theta()[0] <= 0 {
		t.Fatalf("theta after accept = %v", s.Theta())
	}
}

func TestSGDLearnsButSlowerThanEllipsoid(t *testing.T) {
	n := 6
	T := 8000
	r0 := randx.New(61)
	theta := positiveTheta(r0, n)

	run := func(p Poster) *Tracker {
		r := randx.New(62)
		tr := NewTracker()
		for i := 0; i < T; i++ {
			x := positiveSphere(r, n)
			v := x.Dot(theta)
			q, err := p.PostPrice(x, math.Inf(-1))
			if err != nil {
				t.Fatal(err)
			}
			if q.Decision != DecisionSkip {
				p.Observe(Sold(q.Price, v))
			}
			tr.Record(v, math.Inf(-1), q)
		}
		return tr
	}

	sgd, err := NewSGD(n, 0.5, 1.0, false)
	if err != nil {
		t.Fatal(err)
	}
	trS := run(sgd)
	ell, err := New(n, 2*math.Sqrt(float64(n)), WithThreshold(DefaultThreshold(n, T, 0)))
	if err != nil {
		t.Fatal(err)
	}
	trE := run(ell)

	// SGD must genuinely learn (beat posting zero forever = ratio 1)…
	if trS.RegretRatio() > 0.6 {
		t.Fatalf("SGD did not learn: ratio %v", trS.RegretRatio())
	}
	// …but the ellipsoid mechanism converges faster (§VI-B comparison).
	if !(trE.RegretRatio() < trS.RegretRatio()) {
		t.Fatalf("ellipsoid %v not below SGD %v", trE.RegretRatio(), trS.RegretRatio())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	n := 5
	m, _ := New(n, 2, WithReserve(), WithUncertainty(0.01), WithThreshold(0.05))
	r := randx.New(63)
	theta := r.OnSphere(n)
	for i := 0; i < 200; i++ {
		x := r.OnSphere(n)
		q, err := m.PostPrice(x, math.Inf(-1))
		if err != nil {
			t.Fatal(err)
		}
		if q.Decision != DecisionSkip {
			m.Observe(Sold(q.Price, x.Dot(theta)))
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(decoded)
	if err != nil {
		t.Fatal(err)
	}
	// The restored mechanism must agree with the original on the next
	// rounds exactly.
	if restored.Counters() != m.Counters() {
		t.Fatalf("counters differ: %+v vs %+v", restored.Counters(), m.Counters())
	}
	for i := 0; i < 50; i++ {
		x := r.OnSphere(n)
		q1, err := m.PostPrice(x, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := restored.PostPrice(x, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if q1.Decision != q2.Decision || math.Abs(q1.Price-q2.Price) > 1e-12 {
			t.Fatalf("round %d diverged: %+v vs %+v", i, q1, q2)
		}
		if q1.Decision != DecisionSkip {
			sold := Sold(q1.Price, x.Dot(theta))
			m.Observe(sold)
			restored.Observe(sold)
		}
	}
}

func TestSnapshotErrors(t *testing.T) {
	m, _ := New(2, 1, WithThreshold(0.1))
	m.PostPrice(linalg.VectorOf(1, 0), 0)
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("expected pending-round snapshot error")
	}
	m.Observe(true)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt fields one at a time.
	if _, err := Restore(nil); err == nil {
		t.Fatal("expected nil snapshot error")
	}
	bad := *snap
	bad.N = 0
	if _, err := Restore(&bad); err == nil {
		t.Fatal("expected dimension error")
	}
	bad = *snap
	bad.Shape = bad.Shape[:1]
	if _, err := Restore(&bad); err == nil {
		t.Fatal("expected shape length error")
	}
	bad = *snap
	bad.Center = nil
	if _, err := Restore(&bad); err == nil {
		t.Fatal("expected center length error")
	}
	bad = *snap
	bad.Threshold = 0
	if _, err := Restore(&bad); err == nil {
		t.Fatal("expected threshold error")
	}
	bad = *snap
	bad.Delta = -1
	if _, err := Restore(&bad); err == nil {
		t.Fatal("expected delta error")
	}
	bad = *snap
	bad.Shape = make([]float64, 4) // all-zero: not PD
	if _, err := Restore(&bad); err == nil {
		t.Fatal("expected PD error")
	}
	// Wrong version on the wire.
	var raw map[string]any
	data, _ := snap.Encode()
	json.Unmarshal(data, &raw)
	raw["version"] = 99
	wire, _ := json.Marshal(raw)
	if _, err := DecodeSnapshot(wire); err == nil {
		t.Fatal("expected version error")
	}
	if _, err := DecodeSnapshot([]byte("{")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestSyncPosterConcurrent(t *testing.T) {
	n := 4
	inner, _ := New(n, 2, WithThreshold(0.05))
	sp := NewSync(inner)
	r0 := randx.New(64)
	theta := r0.OnSphere(n)

	const workers = 8
	const perWorker = 100
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := randx.NewStream(65, uint64(w))
			for i := 0; i < perWorker; i++ {
				x := r.OnSphere(n)
				v := x.Dot(theta)
				_, _, err := sp.PriceRound(x, 0, v)
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := inner.Counters().Rounds; got != workers*perWorker {
		t.Fatalf("rounds = %d, want %d", got, workers*perWorker)
	}
	// Plain PostPrice/Observe also work through the wrapper.
	q, err := sp.PostPrice(linalg.VectorOf(1, 0, 0, 0), math.Inf(-1))
	if err != nil {
		t.Fatal(err)
	}
	if q.Decision != DecisionSkip {
		if err := sp.Observe(true); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSGDPostPriceInputValidation is the regression test for malformed
// inputs: a NaN/Inf feature entry used to flow straight into the θ̂
// update and poison every later round.
func TestSGDPostPriceInputValidation(t *testing.T) {
	cases := []struct {
		name string
		x    []float64
	}{
		{"short", []float64{1}},
		{"long", []float64{1, 2, 3}},
		{"nan", []float64{math.NaN(), 0}},
		{"+inf", []float64{0, math.Inf(1)}},
		{"-inf", []float64{math.Inf(-1), 0}},
	}
	s, err := NewSGD(2, 0.5, 1.0, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if _, err := s.PostPrice(tc.x, 0.1); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
		if s.Pending() {
			t.Fatalf("%s: rejected round left the poster pending", tc.name)
		}
	}
	// A valid round still works after the rejections, and theta is clean.
	q, err := s.PostPrice([]float64{1, 0}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(true); err != nil {
		t.Fatal(err)
	}
	for i, v := range s.Theta() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("theta[%d] = %v after rejected inputs", i, v)
		}
	}
	_ = q
}

// TestSGDPending covers the two-phase introspection used by SyncPoster's
// shadow and the serving guards.
func TestSGDPending(t *testing.T) {
	s, err := NewSGD(2, 0.5, 1.0, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pending() {
		t.Fatal("fresh poster pending")
	}
	if _, err := s.PostPrice([]float64{1, 0}, 0); err != nil {
		t.Fatal(err)
	}
	if !s.Pending() {
		t.Fatal("not pending after PostPrice")
	}
	if _, err := s.SnapshotEnvelope(); err == nil {
		t.Fatal("snapshot accepted mid-round")
	}
	if err := s.Observe(false); err != nil {
		t.Fatal(err)
	}
	if s.Pending() {
		t.Fatal("pending after Observe")
	}
}
