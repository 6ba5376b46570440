package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datamarket/api"
	"datamarket/internal/server"
)

// newBroker stands up a real brokerd edge and an SDK client over it.
func newBroker(t *testing.T, opts ...Option) (*server.Server, *Client) {
	t.Helper()
	srv := server.NewServer(nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, c
}

// flaky wraps a handler, injecting failures: for each request key
// (method+path), the first `fail500` attempts answer 500 and the next
// `drop` attempts hard-close the TCP connection mid-response.
type flaky struct {
	inner   http.Handler
	fail500 int
	drop    int

	mu   sync.Mutex
	seen map[string]int
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := r.Method + " " + r.URL.Path
	f.mu.Lock()
	n := f.seen[key]
	f.seen[key] = n + 1
	f.mu.Unlock()
	switch {
	case n < f.fail500:
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(api.ErrorResponse{Error: api.ErrorDetail{
			Code: api.CodeInternal, Message: "injected failure",
		}})
	case n < f.fail500+f.drop:
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("test server does not support hijacking")
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			panic(err)
		}
		conn.Close() // dropped connection: the client sees a transport error
	default:
		f.inner.ServeHTTP(w, r)
	}
}

// newFlakyBroker serves brokerd behind failure injection.
func newFlakyBroker(t *testing.T, fail500, drop int, opts ...Option) (*server.Server, *Client, *flaky) {
	t.Helper()
	srv := server.NewServer(nil)
	f := &flaky{
		inner:   srv.Handler(),
		fail500: fail500,
		drop:    drop,
		seen:    make(map[string]int),
	}
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, c, f
}

// TestRetriesIdempotent drives every idempotent call class through
// injected 500s and dropped connections: with enough retries configured
// the calls succeed transparently. Streams are created registry-side —
// create is a POST and must not ride the retry loop.
func TestRetriesIdempotent(t *testing.T) {
	// Each unique method+path fails with one 500 and one dropped
	// connection before working — two retries needed.
	srv, c, _ := newFlakyBroker(t, 1, 1, WithRetries(2), WithBackoff(time.Millisecond, 8*time.Millisecond))
	if _, err := srv.Registry().Create(server.CreateStreamRequest{ID: "s", Dim: 2}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// The version probe itself rides the retry loop (GET, idempotent).
	if _, err := c.ListStreams(ctx); err != nil {
		t.Fatalf("list: %v", err)
	}
	if _, err := c.Stats(ctx, "s"); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if _, err := c.Snapshot(ctx, "s"); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if _, err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	if err := c.DeleteStream(ctx, "s", false); err != nil {
		t.Fatalf("delete: %v", err)
	}
}

// TestNonIdempotentNotRetried: pricing and create mutate server state,
// so a 5xx must surface on the first attempt, not be replayed.
func TestNonIdempotentNotRetried(t *testing.T) {
	_, c, f := newFlakyBroker(t, 1, 0, WithRetries(5), WithBackoff(time.Millisecond, 8*time.Millisecond))
	_, err := c.CreateStream(context.Background(), api.CreateStreamRequest{ID: "s", Dim: 2})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want the injected 500 (non-idempotent calls never retry)", err)
	}
	f.mu.Lock()
	attempts := f.seen["POST /v1/streams"]
	f.mu.Unlock()
	if attempts != 1 {
		t.Fatalf("create attempted %d times, want exactly 1", attempts)
	}
}

// TestRetryBackoffSchedule asserts retries actually wait: three
// attempts with base 30ms take at least base + 2·base.
func TestRetryBackoffSchedule(t *testing.T) {
	_, c, _ := newFlakyBroker(t, 2, 0, WithRetries(2), WithBackoff(30*time.Millisecond, time.Second))
	start := time.Now()
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("health: %v", err)
	}
	// /healthz pays 2 retries; the version probe pays its own 2.
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("four backoff waits of 30/60ms finished in %v — backoff not applied", elapsed)
	}
}

// TestRetriesExhausted: more failures than retries surfaces the last
// error.
func TestRetriesExhausted(t *testing.T) {
	_, c, _ := newFlakyBroker(t, 5, 0, WithRetries(1), WithBackoff(time.Millisecond, time.Millisecond))
	_, err := c.Health(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want surviving 500", err)
	}
}

// TestRetryHonorsContext: cancellation mid-backoff aborts the loop.
func TestRetryHonorsContext(t *testing.T) {
	_, c, _ := newFlakyBroker(t, 100, 0, WithRetries(100), WithBackoff(50*time.Millisecond, time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Health(ctx)
	if err == nil {
		t.Fatal("expected failure")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("retry loop outlived its context")
	}
}

// TestVersionCheck pins the compatibility probe: one request on first
// use, a latched ErrIncompatibleAPI against a mismatched server.
func TestVersionCheck(t *testing.T) {
	var versionCalls, otherCalls atomic.Int32
	mismatched := func(api string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/version" {
				versionCalls.Add(1)
				json.NewEncoder(w).Encode(map[string]string{"api": api, "server": "t", "go_version": "t"})
				return
			}
			otherCalls.Add(1)
			w.Write([]byte("{}"))
		})
	}

	t.Run("compatible", func(t *testing.T) {
		versionCalls.Store(0)
		ts := httptest.NewServer(mismatched(api.APIVersion))
		defer ts.Close()
		c, err := New(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := c.Health(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		if n := versionCalls.Load(); n != 1 {
			t.Fatalf("version probed %d times, want once", n)
		}
	})

	t.Run("mismatch latched", func(t *testing.T) {
		versionCalls.Store(0)
		otherCalls.Store(0)
		ts := httptest.NewServer(mismatched("v999"))
		defer ts.Close()
		c, err := New(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			_, err := c.Health(context.Background())
			if !errors.Is(err, ErrIncompatibleAPI) {
				t.Fatalf("err = %v, want ErrIncompatibleAPI", err)
			}
		}
		if n := versionCalls.Load(); n != 1 {
			t.Fatalf("version probed %d times, want once (mismatch latched)", n)
		}
		if n := otherCalls.Load(); n != 0 {
			t.Fatalf("%d API calls escaped to an incompatible server", n)
		}
	})
}

// TestAPIErrorMapping pins the typed error surface: status, stable wire
// code, helpers.
func TestAPIErrorMapping(t *testing.T) {
	_, c := newBroker(t)
	ctx := context.Background()

	_, err := c.Stats(ctx, "missing")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T, want *APIError", err)
	}
	if ae.Status != http.StatusNotFound || ae.Code != api.CodeStreamNotFound {
		t.Fatalf("got %d/%s, want 404/%s", ae.Status, ae.Code, api.CodeStreamNotFound)
	}
	if !IsNotFound(err) {
		t.Error("IsNotFound is false for a 404")
	}
	if ErrorCode(err) != api.CodeStreamNotFound {
		t.Errorf("ErrorCode = %q", ErrorCode(err))
	}

	if _, err := c.CreateStream(ctx, api.CreateStreamRequest{ID: "s", Dim: 2}); err != nil {
		t.Fatal(err)
	}
	_, err = c.CreateStream(ctx, api.CreateStreamRequest{ID: "s", Dim: 2})
	if ErrorCode(err) != api.CodeStreamExists {
		t.Fatalf("duplicate create: %v, want code %s", err, api.CodeStreamExists)
	}
	_, err = c.Market(ctx, "missing")
	if !IsNotFound(err) || ErrorCode(err) != api.CodeMarketNotFound {
		t.Fatalf("missing market: %v, want 404/%s", err, api.CodeMarketNotFound)
	}
}

// TestServerVersion surfaces the probed build info.
func TestServerVersion(t *testing.T) {
	_, c := newBroker(t)
	v, err := c.ServerVersion(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.API != api.APIVersion || v.Server != server.Version {
		t.Fatalf("version = %+v", v)
	}
}
