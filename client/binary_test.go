package client

// Negotiation tests for WithBinary: the SDK must use the binary codec
// against a capable server, keep speaking JSON against a server that
// predates it, and leave binary-unaware clients untouched either way.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"datamarket/api"
	"datamarket/api/binary"
	"datamarket/internal/randx"
	"datamarket/internal/server"
)

// contentTypeRecorder wraps a handler, recording the Content-Type of
// every request to a hot path.
type contentTypeRecorder struct {
	inner http.Handler

	mu   sync.Mutex
	seen []string
}

func (rec *contentTypeRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.URL.Path, "price") || strings.Contains(r.URL.Path, "trade") {
		rec.mu.Lock()
		rec.seen = append(rec.seen, r.Header.Get("Content-Type"))
		rec.mu.Unlock()
	}
	rec.inner.ServeHTTP(w, r)
}

func (rec *contentTypeRecorder) hotContentTypes() []string {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]string(nil), rec.seen...)
}

func newRecordedBroker(t *testing.T, opts ...Option) (*Client, *contentTypeRecorder) {
	t.Helper()
	rec := &contentTypeRecorder{inner: server.NewServer(nil).Handler()}
	ts := httptest.NewServer(rec)
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, rec
}

// TestWithBinaryUsesCodec pins that, against a capable server, every hot
// call switches to the binary codec from the first call (the version
// probe's response already advertised support) and still returns the
// same answers a JSON client gets.
func TestWithBinaryUsesCodec(t *testing.T) {
	ctx := context.Background()
	c, rec := newRecordedBroker(t, WithBinary())
	if _, err := c.CreateStream(ctx, api.CreateStreamRequest{ID: "s", Dim: 2, Threshold: 0.05}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Price(ctx, "s", []float64{0.6, 0.8}, -1e9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Decision == "" || resp.Accepted == nil {
		t.Fatalf("binary price returned %+v", resp)
	}
	rounds := make([]api.BatchPriceRound, 8)
	for i := range rounds {
		v := 0.5
		rounds[i] = api.BatchPriceRound{Features: []float64{0.1, 0.2}, Reserve: -1e9, Valuation: &v}
	}
	results, err := c.PriceBatch(ctx, "s", rounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(rounds) {
		t.Fatalf("got %d results for %d rounds", len(results), len(rounds))
	}
	for _, ct := range rec.hotContentTypes() {
		if ct != binary.ContentType {
			t.Errorf("hot call went out as %q, want %q", ct, binary.ContentType)
		}
	}
	if len(rec.hotContentTypes()) == 0 {
		t.Fatal("recorder saw no hot calls")
	}
}

// TestWithBinaryFallsBackOnOldServer stands up a fake server that
// speaks the current API version but not this SDK's codec version —
// one that never sets X-Binary-Protocol, and one that advertises codec
// version 1 — and pins that a WithBinary client keeps speaking JSON and
// succeeding.
func TestWithBinaryFallsBackOnOldServer(t *testing.T) {
	for name, proto := range map[string]string{"pre-binary": "", "codec v1": "1"} {
		t.Run(name, func(t *testing.T) {
			var hotCTs []string
			var mu sync.Mutex
			old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if proto != "" {
					w.Header().Set(binary.ProtoHeader, proto)
				}
				switch {
				case r.URL.Path == "/v1/version":
					json.NewEncoder(w).Encode(api.VersionResponse{API: api.APIVersion, Server: "0.4.0"})
				case strings.HasSuffix(r.URL.Path, "/price"):
					mu.Lock()
					hotCTs = append(hotCTs, r.Header.Get("Content-Type"))
					mu.Unlock()
					var req api.PriceRequest
					if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
						t.Errorf("old server got a non-JSON body: %v", err)
						w.WriteHeader(http.StatusBadRequest)
						return
					}
					json.NewEncoder(w).Encode(api.PriceResponse{Price: 1, Decision: "exploratory"})
				default:
					w.WriteHeader(http.StatusNotFound)
					json.NewEncoder(w).Encode(api.ErrorResponse{Error: api.ErrorDetail{Code: api.CodeNotFound}})
				}
			}))
			t.Cleanup(old.Close)

			c, err := New(old.URL, WithBinary())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ { // the second call follows a response carrying the header
				resp, err := c.Price(context.Background(), "s", []float64{1}, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				if resp.Price != 1 {
					t.Fatalf("price = %+v", resp)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if len(hotCTs) != 2 || hotCTs[0] != "application/json" || hotCTs[1] != "application/json" {
				t.Errorf("old server saw hot content types %v, want two JSON calls", hotCTs)
			}
		})
	}
}

// TestTradeBatchSparseOverBinary pins that a WithBinary client sends
// dense trades in the sparse form, leaves the caller's trades as they
// were, and keeps the books of a twin market traded through a JSON
// client identical — a dense trade of the wrong length failing its own
// slot with the same message under both codecs. A batch with a trade
// the frame cannot carry (a negative support index) goes as JSON.
func TestTradeBatchSparseOverBinary(t *testing.T) {
	const owners = 12
	ctx := context.Background()
	var (
		mu    sync.Mutex
		forms []string // per trade batch: "json", "sparse" or "dense"
	)
	inner := server.NewServer(nil).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/trade/batch") {
			form := "json"
			if r.Header.Get("Content-Type") == binary.ContentType {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					t.Error(err)
				}
				var req api.TradeBatchRequest
				if err := binary.Decode(body, &req); err != nil {
					t.Errorf("decoding a binary trade batch: %v", err)
				}
				form = "sparse"
				for _, trade := range req.Trades {
					if trade.Owners == 0 {
						form = "dense"
					}
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			mu.Lock()
			forms = append(forms, form)
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	jc, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := New(ts.URL, WithBinary())
	if err != nil {
		t.Fatal(err)
	}
	spec := api.CreateMarketRequest{Owners: make([]api.OwnerSpec, owners), Seed: 9, Horizon: 1000}
	for i := range spec.Owners {
		spec.Owners[i] = api.OwnerSpec{Value: float64(i), Range: 2, Contract: api.ContractSpec{Type: "tanh", Rho: 1, Eta: 10}}
	}
	for _, id := range []string{"m-json", "m-bin"} {
		spec.ID = id
		if _, err := jc.CreateMarket(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}

	r := randx.New(3)
	trades := make([]api.TradeRequest, 16)
	for i := range trades {
		w := make([]float64, owners)
		for j := range w {
			switch u := r.Float64(); {
			case u < 0.1:
				w[j] = math.Copysign(0, -1)
			case u < 0.4:
				w[j] = r.Normal(0, 1)
			}
		}
		trades[i] = api.TradeRequest{Weights: w, NoiseVariance: 1, Valuation: 4 * r.Float64()}
	}
	trades[2].Weights = make([]float64, owners) // all zero
	trades[5].Weights = trades[5].Weights[:owners-1]
	before := make([]api.TradeRequest, len(trades))
	for i, tr := range trades {
		before[i] = tr
		before[i].Weights = append([]float64(nil), tr.Weights...)
	}
	for round := 0; round < 3; round++ {
		jr, err := jc.TradeBatch(ctx, "m-json", trades)
		if err != nil {
			t.Fatal(err)
		}
		br, err := bc.TradeBatch(ctx, "m-bin", trades)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(jr, br) {
			t.Fatalf("round %d: JSON and binary clients disagree:\n json %+v\n  bin %+v", round, jr, br)
		}
		for i, res := range br {
			if (i == 5) != (res.Error != "") {
				t.Errorf("round %d slot %d: error %q", round, i, res.Error)
			}
		}
	}
	if !reflect.DeepEqual(trades, before) {
		t.Error("TradeBatch changed the caller's trades")
	}

	odd := []api.TradeRequest{
		trades[0],
		{Owners: owners, Support: []int{-1}, Weights: []float64{1}, NoiseVariance: 1, Valuation: 1},
	}
	res, err := bc.TradeBatch(ctx, "m-bin", odd)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Error != "" || res[1].Error == "" {
		t.Errorf("fallback batch results %+v, want slot 1 alone to fail", res)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"json", "sparse", "json", "sparse", "json", "sparse", "json"}
	if !reflect.DeepEqual(forms, want) {
		t.Errorf("trade batches went out as %v, want %v", forms, want)
	}
}

// TestBinaryUnawareClientAgainstNewServer pins the other compatibility
// leg: a default (JSON) client against a binary-capable server stays on
// JSON end to end.
func TestBinaryUnawareClientAgainstNewServer(t *testing.T) {
	ctx := context.Background()
	c, rec := newRecordedBroker(t) // no WithBinary
	if _, err := c.CreateStream(ctx, api.CreateStreamRequest{ID: "s", Dim: 2, Threshold: 0.05}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Price(ctx, "s", []float64{0.6, 0.8}, -1e9, 0.9); err != nil {
		t.Fatal(err)
	}
	for _, ct := range rec.hotContentTypes() {
		if ct != "application/json" {
			t.Errorf("binary-unaware client sent %q", ct)
		}
	}
}

// TestWithBinaryErrorPath pins that error handling is codec-independent:
// a binary client still gets typed APIErrors with stable codes.
func TestWithBinaryErrorPath(t *testing.T) {
	ctx := context.Background()
	c, _ := newRecordedBroker(t, WithBinary())
	_, err := c.Price(ctx, "missing", []float64{1, 2}, 0, 1)
	if got := ErrorCode(err); got != api.CodeStreamNotFound {
		t.Fatalf("error code %q (err %v), want %q", got, err, api.CodeStreamNotFound)
	}
	if !IsNotFound(err) {
		t.Fatalf("IsNotFound(%v) = false", err)
	}
}

// TestWithBinaryFlusher drives the auto-batching Flusher over the binary
// codec: coalesced multi-stream batches must ride the codec and fan
// results back correctly.
func TestWithBinaryFlusher(t *testing.T) {
	ctx := context.Background()
	c, rec := newRecordedBroker(t, WithBinary())
	for _, id := range []string{"fa", "fb"} {
		if _, err := c.CreateStream(ctx, api.CreateStreamRequest{ID: id, Dim: 2, Threshold: 0.05}); err != nil {
			t.Fatal(err)
		}
	}
	fl := NewFlusher(c, FlusherConfig{MaxBatch: 8})
	defer fl.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := []string{"fa", "fb"}[i%2]
			if _, err := fl.Price(ctx, id, []float64{0.1, 0.2}, -1e9, 0.5); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	sawBinary := false
	for _, ct := range rec.hotContentTypes() {
		if ct == binary.ContentType {
			sawBinary = true
		}
	}
	if !sawBinary {
		t.Error("flusher batches never used the binary codec")
	}
}
