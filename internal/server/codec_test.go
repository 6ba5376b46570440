package server

// HTTP-level cross-codec tests: the same request must produce the same
// answer — prices, decisions, per-round errors, and error codes — no
// matter which codec carries it. Streams and markets are deterministic
// given their spec (and market seed), so two identically-created
// instances replaying the same rounds, one per codec, must agree
// exactly.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"testing"

	"datamarket/api"
	"datamarket/api/binary"
	"datamarket/internal/randx"
)

// binDo sends a binary-framed request with Accept set to the binary
// content type and decodes the response by its own Content-Type: binary
// frames through the codec, anything else (errors!) as JSON. Returns the
// status and the response Content-Type.
func (c *client) binDo(method, path string, in, out any) (int, string) {
	c.t.Helper()
	var rd io.Reader
	if in != nil {
		frame, err := binary.Append(nil, in)
		if err != nil {
			c.t.Fatalf("encoding binary request: %v", err)
		}
		rd = bytes.NewReader(frame)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	if in != nil {
		req.Header.Set("Content-Type", binary.ContentType)
	}
	req.Header.Set("Accept", binary.ContentType)
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	ct := resp.Header.Get("Content-Type")
	if out != nil {
		if ct == binary.ContentType {
			err = binary.Decode(body, out)
		} else {
			err = json.Unmarshal(body, out)
		}
		if err != nil {
			c.t.Fatalf("%s %s: decoding %s response: %v", method, path, ct, err)
		}
	}
	return resp.StatusCode, ct
}

// twinStreams creates two identically-specified streams so one can be
// driven per codec.
func twinStreams(t *testing.T, c *client, dim int) (jsonID, binID string) {
	t.Helper()
	for _, id := range []string{"codec-json", "codec-bin"} {
		var info StreamInfo
		c.mustDo("POST", "/v1/streams",
			CreateStreamRequest{ID: id, Dim: dim, Threshold: 0.05}, &info, http.StatusCreated)
	}
	return "codec-json", "codec-bin"
}

// TestCrossCodecBatchPrice replays the same batch against twin streams,
// one via JSON and one via the binary codec, and requires identical
// results — including a per-round validation error, which must carry the
// same message under both codecs.
func TestCrossCodecBatchPrice(t *testing.T) {
	_, c := newTestServer(t)
	jsonID, binID := twinStreams(t, c, 3)
	r := randx.New(42)
	rounds := make([]BatchPriceRound, 32)
	for i := range rounds {
		v := r.Float64()
		rounds[i] = BatchPriceRound{Features: r.OnSphere(3), Reserve: -1e9, Valuation: &v}
	}
	// Round 7 fails per-round validation identically under both codecs:
	// a missing valuation is encodable in either (a ragged batch would
	// not be — the columnar frame cannot carry it, so it stays JSON).
	rounds[7].Valuation = nil

	var jsonResp, binResp BatchPriceResponse
	c.mustDo("POST", "/v1/streams/"+jsonID+"/price/batch",
		BatchPriceRequest{Rounds: rounds}, &jsonResp, http.StatusOK)
	status, ct := c.binDo("POST", "/v1/streams/"+binID+"/price/batch",
		&api.BatchPriceRequest{Rounds: rounds}, &binResp)
	if status != http.StatusOK {
		t.Fatalf("binary batch status %d", status)
	}
	if ct != binary.ContentType {
		t.Fatalf("binary batch answered Content-Type %q", ct)
	}
	if !reflect.DeepEqual(jsonResp, binResp) {
		t.Errorf("codecs disagree:\n json: %+v\n  bin: %+v", jsonResp, binResp)
	}
	if binResp.Results[7].Error == "" || binResp.Results[7].Error != jsonResp.Results[7].Error {
		t.Errorf("per-round error differs: json %q, bin %q",
			jsonResp.Results[7].Error, binResp.Results[7].Error)
	}
}

// TestCrossCodecSinglePrice drives one full round per codec against twin
// streams and requires identical responses.
func TestCrossCodecSinglePrice(t *testing.T) {
	_, c := newTestServer(t)
	jsonID, binID := twinStreams(t, c, 3)
	features := []float64{0.6, 0.8, 0}
	v := 0.9

	jsonResp := c.price(jsonID, features, -1e9, v)
	var binResp PriceResponse
	status, ct := c.binDo("POST", "/v1/streams/"+binID+"/price",
		&api.PriceRequest{Features: features, Reserve: -1e9, Valuation: &v}, &binResp)
	if status != http.StatusOK || ct != binary.ContentType {
		t.Fatalf("binary price: status %d, Content-Type %q", status, ct)
	}
	if !reflect.DeepEqual(jsonResp, binResp) {
		t.Errorf("codecs disagree:\n json: %+v\n  bin: %+v", jsonResp, binResp)
	}
}

// TestCrossCodecMultiBatch replays the same multi-stream batch through
// both codecs against twin stream pairs.
func TestCrossCodecMultiBatch(t *testing.T) {
	_, c := newTestServer(t)
	for _, id := range []string{"mj-a", "mj-b", "mb-a", "mb-b"} {
		var info StreamInfo
		c.mustDo("POST", "/v1/streams",
			CreateStreamRequest{ID: id, Dim: 2, Threshold: 0.05}, &info, http.StatusCreated)
	}
	build := func(a, b string) []MultiBatchRound {
		rr := randx.New(7)
		rounds := make([]MultiBatchRound, 16)
		for i := range rounds {
			v := rr.Float64()
			id := a
			if i%2 == 1 {
				id = b
			}
			rounds[i] = MultiBatchRound{StreamID: id, Features: rr.OnSphere(2), Reserve: -1e9, Valuation: &v}
		}
		return rounds
	}

	var jsonResp, binResp BatchPriceResponse
	c.mustDo("POST", "/v1/price/batch",
		MultiBatchPriceRequest{Rounds: build("mj-a", "mj-b")}, &jsonResp, http.StatusOK)
	status, ct := c.binDo("POST", "/v1/price/batch",
		&api.MultiBatchPriceRequest{Rounds: build("mb-a", "mb-b")}, &binResp)
	if status != http.StatusOK || ct != binary.ContentType {
		t.Fatalf("binary multi-batch: status %d, Content-Type %q", status, ct)
	}
	if !reflect.DeepEqual(jsonResp, binResp) {
		t.Errorf("codecs disagree:\n json: %+v\n  bin: %+v", jsonResp, binResp)
	}
}

// TestCrossCodecTradeBatch replays the same trades against twin seeded
// markets, one per codec, and a third market that gets every valid
// sparse trade in its dense form over JSON. All three must agree: the
// codecs carry both forms faithfully, and a sparse trade — an empty
// support included — settles exactly as its dense form. Malformed
// trades, one per validation rule, fail only their own slot with the
// same message under both codecs.
func TestCrossCodecTradeBatch(t *testing.T) {
	_, c := newTestServer(t)
	gen := marketFixture(t, c, "tm-json", 8)
	marketFixture(t, c, "tm-bin", 8)
	marketFixture(t, c, "tm-dense", 8)
	r := randx.New(5)
	var trades, dense []TradeRequest
	bad := map[int]string{} // slot → the rule its trade breaks
	add := func(trade, denseForm TradeRequest) {
		trades = append(trades, trade)
		dense = append(dense, denseForm)
	}
	for i := 0; i < 12; i++ {
		d := TradeRequest{Weights: gen(r), NoiseVariance: 1, Valuation: 2 * r.Float64()}
		if i == 3 {
			d.NoiseVariance = -1 // per-trade validation error, same both codecs
			bad[i] = "bad noise"
		}
		trade := d
		if i%2 == 1 {
			trade = sparseOf(d)
		}
		add(trade, d)
	}
	add(TradeRequest{Owners: 8, Weights: []float64{}, NoiseVariance: 1, Valuation: 1.5},
		TradeRequest{Weights: make([]float64, 8), NoiseVariance: 1, Valuation: 1.5})
	for _, m := range []struct {
		rule  string
		trade TradeRequest
	}{
		{"owners differ from the market's", TradeRequest{Owners: 7, Support: []int{1}, Weights: []float64{1}}},
		{"index out of range", TradeRequest{Owners: 8, Support: []int{2, 8}, Weights: []float64{1, 1}}},
		{"unsorted index", TradeRequest{Owners: 8, Support: []int{5, 2}, Weights: []float64{1, 1}}},
		{"duplicate index", TradeRequest{Owners: 8, Support: []int{3, 3}, Weights: []float64{1, 1}}},
		{"support/weights length mismatch", TradeRequest{Owners: 8, Support: []int{1, 2}, Weights: []float64{1}}},
		// Eight weights: read as dense, this trade would be valid.
		{"support without owners", TradeRequest{Support: []int{1}, Weights: []float64{0, 1, 0, 0, 0, 0, 0, 0}}},
		{"dense of the wrong length", TradeRequest{Weights: []float64{1, 1}}},
	} {
		m.trade.NoiseVariance, m.trade.Valuation = 1, 1
		bad[len(trades)] = m.rule
		add(m.trade, m.trade)
	}

	var jsonResp, binResp, denseResp TradeBatchResponse
	c.mustDo("POST", "/v1/markets/tm-json/trade/batch",
		TradeBatchRequest{Trades: trades}, &jsonResp, http.StatusOK)
	status, ct := c.binDo("POST", "/v1/markets/tm-bin/trade/batch",
		&api.TradeBatchRequest{Trades: trades}, &binResp)
	if status != http.StatusOK || ct != binary.ContentType {
		t.Fatalf("binary trade batch: status %d, Content-Type %q", status, ct)
	}
	c.mustDo("POST", "/v1/markets/tm-dense/trade/batch",
		TradeBatchRequest{Trades: dense}, &denseResp, http.StatusOK)
	if !reflect.DeepEqual(jsonResp, binResp) {
		t.Errorf("codecs disagree:\n json: %+v\n  bin: %+v", jsonResp, binResp)
	}
	if !reflect.DeepEqual(jsonResp, denseResp) {
		t.Errorf("sparse and dense forms disagree:\nsparse: %+v\n dense: %+v", jsonResp, denseResp)
	}
	for i, res := range binResp.Results {
		if rule, isBad := bad[i]; isBad != (res.Error != "") {
			t.Errorf("slot %d (%q): error %q", i, rule, res.Error)
		}
	}

	// JSON cannot carry a non-finite weight and the binary decoder
	// rejects the whole frame, so the finiteness rule is pinned on
	// marketQuery itself, for both forms.
	m, err := newHostedMarket(CreateMarketRequest{ID: "finite", Owners: []OwnerSpec{
		{Value: 1, Range: 1, Contract: ContractSpec{Type: "tanh", Rho: 1, Eta: 10}},
		{Value: 2, Range: 1, Contract: ContractSpec{Type: "tanh", Rho: 1, Eta: 10}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, trade := range []TradeRequest{
		{Owners: 2, Support: []int{1}, Weights: []float64{math.Inf(1)}, NoiseVariance: 1},
		{Weights: []float64{0, math.NaN()}, NoiseVariance: 1},
	} {
		if _, err := marketQuery(m, trade); err == nil {
			t.Errorf("marketQuery accepted non-finite weights %v", trade.Weights)
		}
	}
}

// TestCrossCodecErrorCodes pins that binary requests fail with the same
// JSON error envelope — status, code, and negotiation-independent
// Content-Type — as their JSON twins.
func TestCrossCodecErrorCodes(t *testing.T) {
	_, c := newTestServer(t)
	var info StreamInfo
	c.mustDo("POST", "/v1/streams",
		CreateStreamRequest{ID: "e", Dim: 2, Threshold: 0.05}, &info, http.StatusCreated)
	v := 1.0

	t.Run("malformed body", func(t *testing.T) {
		req, _ := http.NewRequest("POST", c.base+"/v1/streams/e/price/batch",
			bytes.NewReader([]byte("not a frame")))
		req.Header.Set("Content-Type", binary.ContentType)
		req.Header.Set("Accept", binary.ContentType)
		resp, err := c.http.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("error Content-Type %q, want JSON envelope regardless of Accept", ct)
		}
		var env api.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Code != api.CodeInvalidRequest {
			t.Errorf("code %q, want %q (same as malformed JSON)", env.Error.Code, api.CodeInvalidRequest)
		}
	})

	t.Run("stream not found", func(t *testing.T) {
		var jsonEnv, binEnv api.ErrorResponse
		jsonStatus := c.do("POST", "/v1/streams/nope/price",
			PriceRequest{Features: []float64{1, 2}, Valuation: &v}, &jsonEnv)
		binStatus, ct := c.binDo("POST", "/v1/streams/nope/price",
			&api.PriceRequest{Features: []float64{1, 2}, Valuation: &v}, &binEnv)
		if jsonStatus != binStatus || jsonStatus != http.StatusNotFound {
			t.Fatalf("statuses json=%d bin=%d, want both 404", jsonStatus, binStatus)
		}
		if ct != "application/json" {
			t.Fatalf("binary error Content-Type %q, want JSON envelope", ct)
		}
		if jsonEnv.Error.Code != binEnv.Error.Code {
			t.Errorf("codes differ: json %q, bin %q", jsonEnv.Error.Code, binEnv.Error.Code)
		}
	})

	t.Run("empty batch", func(t *testing.T) {
		var jsonEnv, binEnv api.ErrorResponse
		jsonStatus := c.do("POST", "/v1/streams/e/price/batch", BatchPriceRequest{}, &jsonEnv)
		binStatus, _ := c.binDo("POST", "/v1/streams/e/price/batch",
			&api.BatchPriceRequest{}, &binEnv)
		if jsonStatus != binStatus || jsonStatus != http.StatusBadRequest {
			t.Fatalf("statuses json=%d bin=%d, want both 400", jsonStatus, binStatus)
		}
		if jsonEnv.Error != binEnv.Error {
			t.Errorf("envelopes differ: json %+v, bin %+v", jsonEnv.Error, binEnv.Error)
		}
	})
}

// TestBinaryCapabilityHeader pins the negotiation surface: every
// response advertises the codec version, a JSON request stays JSON, and
// Accept alone (JSON body, binary response) negotiates the response leg
// independently of the request leg.
func TestBinaryCapabilityHeader(t *testing.T) {
	ts, c := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got, want := resp.Header.Get(binary.ProtoHeader), strconv.Itoa(int(binary.Version)); got != want {
		t.Errorf("%s = %q, want %q", binary.ProtoHeader, got, want)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("JSON-by-default violated: Content-Type %q", ct)
	}

	// JSON request body + binary Accept: response comes back binary.
	var info StreamInfo
	c.mustDo("POST", "/v1/streams",
		CreateStreamRequest{ID: "n", Dim: 2, Threshold: 0.05}, &info, http.StatusCreated)
	v := 1.0
	body, _ := json.Marshal(PriceRequest{Features: []float64{0.5, 0.5}, Reserve: -1e9, Valuation: &v})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/streams/n/price", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", binary.ContentType)
	r2, err := c.http.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if ct := r2.Header.Get("Content-Type"); ct != binary.ContentType {
		t.Fatalf("Accept negotiation ignored: Content-Type %q", ct)
	}
	frame, err := io.ReadAll(r2.Body)
	if err != nil {
		t.Fatal(err)
	}
	var pr api.PriceResponse
	if err := binary.Decode(frame, &pr); err != nil {
		t.Fatalf("decoding negotiated binary response: %v", err)
	}
	if pr.Price == 0 && pr.Decision == "" {
		t.Error("binary response is empty")
	}
}
