package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datamarket/api"
	"datamarket/internal/server"
)

// TestQuoteSessionProtocol drives the two-phase loop through the SDK
// and asserts the one-pending-round rule is enforced client-side, before
// any wire traffic.
func TestQuoteSessionProtocol(t *testing.T) {
	_, c := newBroker(t)
	ctx := context.Background()
	if _, err := c.CreateStream(ctx, api.CreateStreamRequest{ID: "s", Dim: 2}); err != nil {
		t.Fatal(err)
	}

	s1, err := c.Quote(ctx, "s", []float64{0.3, 0.4}, -100)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Pending() {
		t.Fatal("fresh session not pending")
	}
	if s1.Quote.Decision == "skip" {
		t.Fatalf("unexpected skip: %+v", s1.Quote)
	}

	// A second quote on the same stream fails fast, client-side.
	if _, err := c.Quote(ctx, "s", []float64{0.1, 0.2}, -100); !errors.Is(err, ErrRoundPending) {
		t.Fatalf("second quote: %v, want ErrRoundPending", err)
	}
	// Another stream is unaffected.
	if _, err := c.CreateStream(ctx, api.CreateStreamRequest{ID: "other", Dim: 2}); err != nil {
		t.Fatal(err)
	}
	s2, err := c.Quote(ctx, "other", []float64{0.3, 0.4}, -100)
	if err != nil {
		t.Fatalf("quote on independent stream: %v", err)
	}
	if err := s2.Observe(ctx, false); err != nil {
		t.Fatal(err)
	}

	if err := s1.Observe(ctx, true); err != nil {
		t.Fatal(err)
	}
	if s1.Pending() {
		t.Fatal("observed session still pending")
	}
	// Observing twice is a client-side error.
	if err := s1.Observe(ctx, true); !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("double observe: %v, want ErrRoundClosed", err)
	}
	// The stream accepts a new round now.
	s3, err := c.Quote(ctx, "s", []float64{0.5, 0.1}, -100)
	if err != nil {
		t.Fatalf("quote after observe: %v", err)
	}
	if err := s3.Observe(ctx, false); err != nil {
		t.Fatal(err)
	}
}

// TestQuoteSessionSkip: a skipped round needs no feedback and frees the
// stream immediately.
func TestQuoteSessionSkip(t *testing.T) {
	_, c := newBroker(t)
	ctx := context.Background()
	if _, err := c.CreateStream(ctx, api.CreateStreamRequest{ID: "s", Dim: 2, Reserve: true}); err != nil {
		t.Fatal(err)
	}
	// An absurd reserve forces the certain-no-deal skip path.
	s, err := c.Quote(ctx, "s", []float64{0.3, 0.4}, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if s.Quote.Decision != "skip" {
		t.Fatalf("decision %q, want skip", s.Quote.Decision)
	}
	if s.Pending() {
		t.Fatal("skipped session reports pending")
	}
	if err := s.Observe(ctx, false); !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("observe on skip: %v, want ErrRoundClosed", err)
	}
	// The stream is free for the next round.
	if _, err := c.Quote(ctx, "s", []float64{0.3, 0.4}, -100); err != nil {
		t.Fatalf("quote after skip: %v", err)
	}
}

// batchStub serves /v1/price/batch with price = Σ features and records
// every batch request's rounds in arrival order. The first batch request
// is held until release, so a test can act while a batch is in flight.
type batchStub struct {
	first       chan struct{} // closed when the first batch request arrives
	held        chan struct{} // closed by release
	releaseOnce sync.Once

	mu   sync.Mutex
	reqs [][]api.MultiBatchRound
}

// newStubFlusher builds a Flusher over a fresh batchStub. Cleanup
// releases the held request before it closes the Flusher and the
// server, so a failing test cannot hang on either.
func newStubFlusher(t *testing.T, cfg FlusherConfig) (*batchStub, *Flusher) {
	t.Helper()
	s := &batchStub{first: make(chan struct{}), held: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(api.VersionResponse{API: api.APIVersion, Server: "stub", GoVersion: "stub"})
	})
	mux.HandleFunc("POST /v1/price/batch", func(w http.ResponseWriter, r *http.Request) {
		var req api.MultiBatchPriceRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		s.mu.Lock()
		s.reqs = append(s.reqs, req.Rounds)
		n := len(s.reqs)
		s.mu.Unlock()
		if n == 1 {
			close(s.first)
			<-s.held
		}
		resp := api.BatchPriceResponse{Results: make([]api.BatchRoundResult, len(req.Rounds))}
		for i, rd := range req.Rounds {
			var price float64
			for _, f := range rd.Features {
				price += f
			}
			acc := *rd.Valuation >= price
			resp.Results[i] = api.BatchRoundResult{PriceResponse: api.PriceResponse{
				Price: price, Decision: "exploratory", Accepted: &acc,
			}}
		}
		json.NewEncoder(w).Encode(resp)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFlusher(c, cfg)
	t.Cleanup(f.Close)
	t.Cleanup(s.release)
	return s, f
}

// release lets the held first request answer.
func (s *batchStub) release() { s.releaseOnce.Do(func() { close(s.held) }) }

// requests returns the rounds of every batch request so far.
func (s *batchStub) requests() [][]api.MultiBatchRound {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]api.MultiBatchRound(nil), s.reqs...)
}

// stubPrice prices round i through f against a batchStub — features
// (i, 0.5) on one of two streams — and checks the caller got its own
// round's result.
func stubPrice(f *Flusher, i int) error {
	want := float64(i) + 0.5
	resp, err := f.Price(context.Background(), []string{"a", "b"}[i%2], []float64{float64(i), 0.5}, 0, 1e9)
	if err != nil {
		return fmt.Errorf("call %d: %w", i, err)
	}
	if resp.Price != want || resp.Accepted == nil || !*resp.Accepted {
		return fmt.Errorf("call %d: resp %+v, want price %g", i, resp, want)
	}
	return nil
}

// hangGuard bounds every wait in the flusher tests; it only catches
// hangs, never measures speed.
const hangGuard = 5 * time.Second

// waitClosed waits for ch to close.
func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(hangGuard):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// recvErr receives one error from ch.
func recvErr(t *testing.T, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(hangGuard):
		t.Fatal("timed out waiting for a Price call to return")
		return nil
	}
}

// waitBuffered polls until f's buffer holds k rounds.
func waitBuffered(t *testing.T, f *Flusher, k int) {
	t.Helper()
	deadline := time.Now().Add(hangGuard)
	for {
		f.mu.Lock()
		got := len(f.buf)
		f.mu.Unlock()
		if got == k {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flusher buffers %d rounds, want %d", got, k)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestFlusherCoalesces: while one batch is in flight, the n−1 calls
// made meanwhile wait in one buffer and go as exactly one follow-up
// request once the first returns. Every caller gets its own round's
// result, the follow-up carries the rounds in submission order, and
// Close waits for the rounds still in flight.
func TestFlusherCoalesces(t *testing.T) {
	const n = 16
	stub, f := newStubFlusher(t, FlusherConfig{})
	errs := make(chan error, n) // one send per call

	go func() { errs <- stubPrice(f, 0) }()
	waitClosed(t, stub.first, "the first batch request")
	for i := 1; i < n; i++ {
		go func(i int) { errs <- stubPrice(f, i) }(i)
		// One call at a time, so the submission order is 1..n−1.
		waitBuffered(t, f, i)
	}
	closed := make(chan struct{})
	go func() {
		f.Close()
		close(closed)
	}()
	// A Close that did not wait would return within this grace period;
	// a correct one cannot return before the release below.
	select {
	case <-closed:
		t.Fatal("Close returned while a batch was in flight")
	case <-time.After(10 * time.Millisecond):
	}
	stub.release()
	for i := 0; i < n; i++ {
		if err := recvErr(t, errs); err != nil {
			t.Error(err)
		}
	}
	waitClosed(t, closed, "Close")

	reqs := stub.requests()
	if len(reqs) != 2 {
		t.Fatalf("%d batch requests, want the held one plus one follow-up", len(reqs))
	}
	if len(reqs[0]) != 1 || len(reqs[1]) != n-1 {
		t.Fatalf("batch sizes %d, %d; want 1, %d", len(reqs[0]), len(reqs[1]), n-1)
	}
	for i, rd := range reqs[1] {
		if rd.Features[0] != float64(i+1) {
			t.Fatalf("follow-up round %d carries call %g: submission order lost", i, rd.Features[0])
		}
	}
}

// TestFlusherSequentialCalls: a call that finds no batch in flight goes
// out at once, so sequential callers each send a one-round request.
func TestFlusherSequentialCalls(t *testing.T) {
	const calls = 8
	stub, f := newStubFlusher(t, FlusherConfig{})
	stub.release()
	for i := 0; i < calls; i++ {
		if err := stubPrice(f, i); err != nil {
			t.Fatal(err)
		}
	}
	reqs := stub.requests()
	if len(reqs) != calls {
		t.Fatalf("%d batch requests for %d sequential calls", len(reqs), calls)
	}
	for i, r := range reqs {
		if len(r) != 1 || r[0].Features[0] != float64(i) {
			t.Fatalf("request %d carries %d rounds (%+v), want call %d alone", i, len(r), r, i)
		}
	}
}

// TestFlusherFullBatchGoesAtOnce: a buffer that reaches MaxBatch while
// a batch is in flight is sent without waiting for that batch.
func TestFlusherFullBatchGoesAtOnce(t *testing.T) {
	const maxBatch = 4
	stub, f := newStubFlusher(t, FlusherConfig{MaxBatch: maxBatch})
	first := make(chan error, 1)
	go func() { first <- stubPrice(f, 0) }()
	waitClosed(t, stub.first, "the first batch request")

	errs := make(chan error, maxBatch) // one send per call
	for i := 1; i <= maxBatch; i++ {
		go func(i int) { errs <- stubPrice(f, i) }(i)
	}
	// The full batch is answered while the first is still held.
	for i := 0; i < maxBatch; i++ {
		if err := recvErr(t, errs); err != nil {
			t.Fatal(err)
		}
	}
	stub.release()
	if err := recvErr(t, first); err != nil {
		t.Fatal(err)
	}
	reqs := stub.requests()
	if len(reqs) != 2 || len(reqs[1]) != maxBatch {
		t.Fatalf("batch requests %v, want the held one plus one of %d rounds", reqs, maxBatch)
	}
}

// TestFlusherDoneCtx: a ctx that is already done fails before its round
// is enqueued, so the mechanism never sees the round. A ctx that ends
// while its batch is in flight abandons only the wait: the round still
// prices.
func TestFlusherDoneCtx(t *testing.T) {
	inner := server.NewServer(nil).Handler()
	var hold atomic.Bool
	held := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/price/batch" && hold.CompareAndSwap(true, false) {
			close(held)
			<-release
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	if _, err := c.CreateStream(bg, api.CreateStreamRequest{ID: "s", Dim: 2}); err != nil {
		t.Fatal(err)
	}
	rounds := func() int {
		t.Helper()
		stats, err := c.Stats(bg, "s")
		if err != nil {
			t.Fatal(err)
		}
		return stats.Counters.Rounds
	}
	f := NewFlusher(c, FlusherConfig{})
	defer f.Close()
	defer unblock() // before Close, which waits for the held batch

	done, cancel := context.WithCancel(bg)
	cancel()
	if _, err := f.Price(done, "s", []float64{0.3, 0.4}, -100, 1e9); !errors.Is(err, context.Canceled) {
		t.Fatalf("Price with a done ctx: %v, want context.Canceled", err)
	}
	// A later round's batch would carry the abandoned round too, had it
	// been enqueued.
	if _, err := f.Price(bg, "s", []float64{0.3, 0.4}, -100, 1e9); err != nil {
		t.Fatal(err)
	}
	if got := rounds(); got != 1 {
		t.Fatalf("counters show %d rounds after one live call: the abandoned round priced", got)
	}

	hold.Store(true)
	ctx, cancel := context.WithCancel(bg)
	errs := make(chan error, 1)
	go func() {
		_, err := f.Price(ctx, "s", []float64{0.3, 0.4}, -100, 1e9)
		errs <- err
	}()
	waitClosed(t, held, "the batch request")
	cancel()
	if err := recvErr(t, errs); !errors.Is(err, context.Canceled) {
		t.Fatalf("Price whose ctx ended in flight: %v, want context.Canceled", err)
	}
	unblock()
	f.Close()
	if got := rounds(); got != 2 {
		t.Fatalf("counters show %d rounds, want the in-flight round priced too", got)
	}
}

// TestFlusherAgainstBroker prices a real workload through the Flusher
// against brokerd and checks every round landed: the stream's counters
// account for all calls.
func TestFlusherAgainstBroker(t *testing.T) {
	const calls = 96
	_, c := newBroker(t)
	ctx := context.Background()
	if _, err := c.CreateStream(ctx, api.CreateStreamRequest{ID: "s", Dim: 2, Horizon: calls}); err != nil {
		t.Fatal(err)
	}
	f := NewFlusher(c, FlusherConfig{MaxBatch: 16})
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := []float64{0.1 + float64(i%7)/10, 0.2 + float64(i%5)/10}
			if _, err := f.Price(ctx, "s", x, -100, 1e9); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	f.Close()
	stats, err := c.Stats(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters.Rounds != calls {
		t.Fatalf("mechanism saw %d rounds, want %d", stats.Counters.Rounds, calls)
	}
	if stats.Regret.Rounds != calls {
		t.Fatalf("tracker saw %d rounds, want %d", stats.Regret.Rounds, calls)
	}
}

// TestQuoteTransportRecovery: when the quote response is lost after the
// server opened the round, the SDK's cleanup observation closes the
// half-open round, so the stream stays usable instead of wedging on 409
// round_pending forever.
func TestQuoteTransportRecovery(t *testing.T) {
	srv := server.NewServer(nil)
	inner := srv.Handler()
	var dropNext atomic.Bool
	proxy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dropNext.CompareAndSwap(true, false) {
			// Let the server process the quote, then lose the response.
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK {
				t.Errorf("inner quote status %d", rec.Code)
			}
			hj, _ := w.(http.Hijacker)
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
			return
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(proxy)
	defer ts.Close()
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.CreateStream(ctx, api.CreateStreamRequest{ID: "s", Dim: 2}); err != nil {
		t.Fatal(err)
	}

	dropNext.Store(true)
	s, err := c.Quote(ctx, "s", []float64{0.3, 0.4}, -100)
	if err == nil {
		t.Fatal("quote with dropped response reported success")
	}
	if s != nil {
		t.Fatalf("cleanup reached the server, session should be nil (err %v)", err)
	}
	// The round the server opened was closed by the cleanup observation;
	// the stream accepts a fresh quote from this client.
	s2, err := c.Quote(ctx, "s", []float64{0.5, 0.1}, -100)
	if err != nil {
		t.Fatalf("stream wedged after transport failure: %v", err)
	}
	if err := s2.Observe(ctx, true); err != nil {
		t.Fatal(err)
	}
}

// TestFlusherClampsMaxBatch: a MaxBatch beyond the server's wire limit
// is clamped instead of dooming every coalesced caller to a 400.
func TestFlusherClampsMaxBatch(t *testing.T) {
	_, c := newBroker(t)
	f := NewFlusher(c, FlusherConfig{MaxBatch: api.MaxBatchRounds * 2})
	defer f.Close()
	if f.cfg.MaxBatch != api.MaxBatchRounds {
		t.Fatalf("MaxBatch %d, want clamped to %d", f.cfg.MaxBatch, api.MaxBatchRounds)
	}
}

// TestFlusherClosed: Price after Close fails fast.
func TestFlusherClosed(t *testing.T) {
	_, c := newBroker(t)
	f := NewFlusher(c, FlusherConfig{})
	f.Close()
	if _, err := f.Price(context.Background(), "s", []float64{1}, 0, 1); !errors.Is(err, ErrFlusherClosed) {
		t.Fatalf("err = %v, want ErrFlusherClosed", err)
	}
}
