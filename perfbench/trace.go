package main

// Tracing for the per-layer run. Spans are recorded from the benchmark's
// own wrappers around the calls into each layer — the SDK call, an
// http.RoundTripper around the SDK's transport, a wrapper around
// Server.Handler(), and a wrapper around the store.Store handed to
// AttachPersistence — so no program code changes. Spans stay in memory
// and are written out when the run ends.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datamarket/internal/store"
)

type spanKind uint8

const (
	kindSDK spanKind = iota
	kindHTTP
	kindHandler
	kindPut
	kindCheckpoint
)

var kindNames = [...]string{"sdk", "http", "handler", "store.put", "checkpoint"}

func (k spanKind) String() string { return kindNames[k] }

// requestIDHeader carries an HTTP span's request id to the handler span.
const requestIDHeader = "X-Request-Id"

// span is one timed interval at a layer boundary. Times are offsets from
// the tracer's epoch on the monotonic clock.
type span struct {
	ID     uint64
	Parent uint64 // 0: root
	Kind   spanKind
	Start  time.Duration
	End    time.Duration
	Req    uint64 // request id shared by an http span and its handler span
	Op     int    // sdk spans of workload ops: the op index; −1 otherwise
	Units  int    // sdk spans: rounds or trades the call priced
	Path   string // http and handler spans
	Sync   bool   // store.put spans: a write-ahead Put rather than a checkpoint PutAsync

	ReqBytes, RespBytes int64
	// ReqBody and RespBody capture hot-path bodies for the codec and
	// pricing replays: request bodies of Flusher batches (which calls a
	// batch carries is only known from its body) and every hot response.
	ReqBody, RespBody []byte
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer records spans while on. Every wrapper passes straight through
// while it is off, which is how the traced run's untraced closed loop
// measures the tracing overhead.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span

	// pass tracks the open checkpoint pass: the persister's checkpointer
	// enqueues one delta per dirty stream and ends every pass with
	// MaybeCompact, so a pass spans its first enqueue to that call.
	passMu    sync.Mutex
	passOpen  bool
	passID    uint64
	passStart time.Duration

	// compacted sums the journal-tail bytes folded away by compactions,
	// so bytes written = compacted + the live tail.
	compacted atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
	t.on.Store(true)
	return t
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans sorted by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

type spanKey struct{}

// beginSDK opens the span of one SDK call; end closes it with the units
// the call priced. The span id rides the context so the round trip the
// call makes can name it as parent.
func (t *tracer) beginSDK(ctx context.Context, op int) (context.Context, func(units int)) {
	if t == nil || !t.on.Load() {
		return ctx, func(int) {}
	}
	id := t.ids.Add(1)
	start := t.now()
	return context.WithValue(ctx, spanKey{}, id), func(units int) {
		t.add(span{ID: id, Kind: kindSDK, Start: start, End: t.now(), Op: op, Units: units})
	}
}

// transport wraps the SDK's pooled transport with http spans.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (t *tracer) wrapTransport(base http.RoundTripper) http.RoundTripper {
	return &transport{t: t, base: base}
}

// hotPath reports whether a route is one of the batch pricing endpoints
// the workloads drive.
func hotPath(p string) bool {
	return strings.HasSuffix(p, "/price/batch") || strings.HasSuffix(p, "/trade/batch")
}

func (rt *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := rt.t
	if !t.on.Load() {
		return rt.base.RoundTrip(req)
	}
	id := t.ids.Add(1)
	parent, _ := req.Context().Value(spanKey{}).(uint64)
	sp := span{ID: id, Parent: parent, Kind: kindHTTP, Req: id, Op: -1, Path: req.URL.Path}
	if req.ContentLength > 0 {
		sp.ReqBytes = req.ContentLength
	}
	// The Flusher sends from its own goroutine under a background
	// context, so which calls a batch carries is read from its body.
	if parent == 0 && req.URL.Path == "/v1/price/batch" && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			sp.ReqBody, _ = io.ReadAll(body)
			body.Close()
		}
	}
	req = req.Clone(req.Context())
	req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
	sp.Start = t.now()
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		sp.End = t.now()
		t.add(sp)
		return nil, err
	}
	resp.Body = &countingBody{rc: resp.Body, t: t, sp: sp, capture: hotPath(sp.Path)}
	return resp, nil
}

// countingBody ends its http span when the response body reaches EOF (or
// is closed early), counting the bytes read on the way.
type countingBody struct {
	rc      io.ReadCloser
	t       *tracer
	sp      span
	capture bool
	buf     []byte
	once    sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.sp.RespBytes += int64(n)
	if b.capture {
		b.buf = append(b.buf, p[:n]...)
	}
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.finish()
	return b.rc.Close()
}

func (b *countingBody) finish() {
	b.once.Do(func() {
		b.sp.End = b.t.now()
		b.sp.RespBody = b.buf
		b.t.add(b.sp)
	})
}

// wrapHandler records a handler span per request, tagged with the
// request id its http span stamped.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id := t.ids.Add(1)
		start := t.now()
		h.ServeHTTP(w, r)
		req, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		t.add(span{ID: id, Kind: kindHandler, Start: start, End: t.now(), Req: req, Op: -1, Path: r.URL.Path})
	})
}

// tracedStore wraps the store the persister writes through. Put is the
// write-ahead lifecycle path (stream creates), PutAsync the checkpoint
// pass's delta enqueue, MaybeCompact the end of every checkpoint pass.
type tracedStore struct {
	store.Store
	t *tracer
}

func (t *tracer) wrapStore(st store.Store) store.Store { return &tracedStore{Store: st, t: t} }

func (s *tracedStore) Put(e store.Entry) error {
	t := s.t
	if !t.on.Load() {
		return s.Store.Put(e)
	}
	id := t.ids.Add(1)
	start := t.now()
	err := s.Store.Put(e)
	t.add(span{ID: id, Kind: kindPut, Start: start, End: t.now(), Op: -1, Sync: true})
	return err
}

func (s *tracedStore) PutAsync(e store.Entry) *store.Ticket {
	t := s.t
	if !t.on.Load() {
		return s.Store.PutAsync(e)
	}
	id := t.ids.Add(1)
	start := t.now()
	pass := t.openPass(start)
	tk := s.Store.PutAsync(e)
	t.add(span{ID: id, Parent: pass, Kind: kindPut, Start: start, End: t.now(), Op: -1})
	return tk
}

func (s *tracedStore) MaybeCompact() (bool, error) {
	t := s.t
	if !t.on.Load() {
		return s.Store.MaybeCompact()
	}
	start := t.now()
	pass := t.openPass(start)
	before := s.Store.Stats()
	compacted, err := s.Store.MaybeCompact()
	if compacted {
		t.compacted.Add(before.JournalBytes)
	}
	t.passMu.Lock()
	t.passOpen = false
	passStart := t.passStart
	t.passMu.Unlock()
	t.add(span{ID: pass, Kind: kindCheckpoint, Start: passStart, End: t.now(), Op: -1})
	return compacted, err
}

// openPass returns the open checkpoint pass, opening one at start if
// none is.
func (t *tracer) openPass(start time.Duration) uint64 {
	t.passMu.Lock()
	defer t.passMu.Unlock()
	if !t.passOpen {
		t.passOpen = true
		t.passID = t.ids.Add(1)
		t.passStart = start
	}
	return t.passID
}

// writeSpans writes the spans as JSON lines, bodies left out.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		s := &spans[i]
		if err := enc.Encode(struct {
			ID        uint64 `json:"id"`
			Parent    uint64 `json:"parent,omitempty"`
			Kind      string `json:"kind"`
			StartNS   int64  `json:"start_ns"`
			EndNS     int64  `json:"end_ns"`
			Req       uint64 `json:"req,omitempty"`
			Op        int    `json:"op"`
			Units     int    `json:"units,omitempty"`
			Path      string `json:"path,omitempty"`
			ReqBytes  int64  `json:"req_bytes,omitempty"`
			RespBytes int64  `json:"resp_bytes,omitempty"`
		}{s.ID, s.Parent, s.Kind.String(), int64(s.Start), int64(s.End), s.Req, s.Op, s.Units, s.Path, s.ReqBytes, s.RespBytes}); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
