package binary

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"datamarket/api"
)

func fp(v float64) *float64 { return &v }
func bp(v bool) *bool       { return &v }

// sampleMessages returns one representative value per wire type, keyed
// by kind. Kept in sync with WireTypes by TestSamplesCoverWireTypes.
func sampleMessages() map[Kind]any {
	return map[Kind]any{
		KindPriceRequest: &api.PriceRequest{
			Features:  []float64{0.25, -1.5, 3.75},
			Reserve:   0.125,
			Valuation: fp(2.5),
		},
		KindPriceBatchRequest: &api.BatchPriceRequest{
			Rounds: []api.BatchPriceRound{
				{Features: []float64{1, 2}, Reserve: 0.5, Valuation: fp(1.25)},
				{Features: []float64{-3, 4}, Reserve: 0},
			},
		},
		KindMultiBatchRequest: &api.MultiBatchPriceRequest{
			Rounds: []api.MultiBatchRound{
				{StreamID: "alpha", Features: []float64{1, 2, 3}, Reserve: 0.5, Valuation: fp(2)},
				{StreamID: "beta", Features: []float64{9}, Reserve: 1.5},
				{StreamID: "alpha", Features: []float64{4, 5, 6}, Reserve: 0.25},
			},
		},
		KindTradeBatchRequest: &api.TradeBatchRequest{
			Trades: []api.TradeRequest{
				{Weights: []float64{0.5, 0.5}, NoiseVariance: 0.01, Valuation: 3},
				{Owners: 6, Support: []int{1, 4}, Weights: []float64{2, -3}, NoiseVariance: 0.5, Valuation: 1.5},
				{Weights: []float64{1}, NoiseVariance: 0.25, Valuation: 0.5},
			},
		},
		KindPriceResponse: &api.PriceResponse{
			Price: 1.75, Decision: "exploratory", Lower: 1.5, Upper: 2,
			ReserveBinding: true, Accepted: bp(true),
		},
		KindBatchResponse: &api.BatchPriceResponse{
			Results: []api.BatchRoundResult{
				{PriceResponse: api.PriceResponse{Price: 1, Decision: "skip", Lower: 0.5, Upper: 1.5}},
				{PriceResponse: api.PriceResponse{Price: 2, Decision: "conservative", Accepted: bp(false)}},
				{Error: "dimension mismatch"},
			},
		},
		KindTradeBatchResponse: &api.TradeBatchResponse{
			Results: []api.TradeBatchResult{
				{TradeResult: api.TradeResult{
					Round: 7, Reserve: 0.5, Posted: 1.25, Decision: "exploratory",
					Sold: true, Revenue: 1.25, Compensation: 0.3, Profit: 0.95,
					Answer: 2.5, Regret: 0.125,
				}},
				{Error: "weights required"},
			},
		},
	}
}

func TestSamplesCoverWireTypes(t *testing.T) {
	samples := sampleMessages()
	for kind := range WireTypes {
		if _, ok := samples[kind]; !ok {
			t.Errorf("no sample message for wire type %s", kind)
		}
	}
	for kind := range samples {
		if _, ok := WireTypes[kind]; !ok {
			t.Errorf("sample %s is not a registered wire type", kind)
		}
	}
}

// newDst returns a fresh zero value of the same pointer type as v.
func newDst(v any) any {
	return reflect.New(reflect.TypeOf(v).Elem()).Interface()
}

func TestRoundTrip(t *testing.T) {
	for kind, msg := range sampleMessages() {
		t.Run(kind.String(), func(t *testing.T) {
			buf, err := Append(nil, msg)
			if err != nil {
				t.Fatalf("Append: %v", err)
			}
			if len(buf) < headerSize {
				t.Fatalf("frame shorter than header: %d bytes", len(buf))
			}
			if got := Kind(buf[5]); got != kind {
				t.Fatalf("encoded kind = %s, want %s", got, kind)
			}
			dst := newDst(msg)
			if err := Decode(buf, dst); err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(dst, msg) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", dst, msg)
			}
		})
	}
}

// TestRoundTripReuse decodes two different frames through one Decoder to
// catch scratch-aliasing bugs, and re-encodes the aliased result before
// the next decode (the server shim's exact access pattern).
func TestRoundTripReuse(t *testing.T) {
	var d Decoder
	first := &api.BatchPriceRequest{
		Rounds: []api.BatchPriceRound{
			{Features: []float64{1, 2, 3}, Reserve: 1, Valuation: fp(4)},
		},
	}
	second := &api.BatchPriceRequest{
		Rounds: []api.BatchPriceRound{
			{Features: []float64{9, 8}, Reserve: 0.5},
			{Features: []float64{7, 6}, Reserve: 0.25, Valuation: fp(1)},
		},
	}
	for i, msg := range []*api.BatchPriceRequest{first, second, first} {
		buf, err := Append(nil, msg)
		if err != nil {
			t.Fatalf("Append #%d: %v", i, err)
		}
		got, err := d.PriceBatch(buf)
		if err != nil {
			t.Fatalf("decode #%d: %v", i, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("decode #%d mismatch:\n got %+v\nwant %+v", i, got, msg)
		}
		re, err := Append(nil, got)
		if err != nil {
			t.Fatalf("re-encode #%d: %v", i, err)
		}
		if !reflect.DeepEqual(re, buf) {
			t.Errorf("re-encode #%d differs from original frame", i)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	good, err := Append(nil, &api.BatchPriceRequest{
		Rounds: []api.BatchPriceRound{{Features: []float64{1, 2}, Reserve: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return f(b)
	}
	nan := mutate(func(b []byte) []byte {
		// First feature float lives after header(8) + k(4) + dim(4).
		putU64(b[16:], math.Float64bits(math.NaN()))
		return b
	})
	cases := map[string][]byte{
		"empty":         nil,
		"short header":  good[:4],
		"bad magic":     mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":   mutate(func(b []byte) []byte { b[4] = 99; return b }),
		"wrong kind":    mutate(func(b []byte) []byte { b[5] = byte(KindTradeBatchRequest); return b }),
		"reserved bits": mutate(func(b []byte) []byte { b[6] = 1; return b }),
		"truncated":     good[:len(good)-1],
		"oversized":     append(append([]byte(nil), good...), 0),
		"huge k":        mutate(func(b []byte) []byte { putU32(b[8:], api.MaxBatchRounds+1); return b }),
		"huge dim":      mutate(func(b []byte) []byte { putU32(b[12:], MaxDim+1); return b }),
		"nan smuggling": nan,
		// The k=1 flags column sits just before the 8-byte vals column.
		"unknown flags": mutate(func(b []byte) []byte { b[len(b)-9] = 0xff; return b }),
	}
	var d Decoder
	for name, frame := range cases {
		if _, err := d.PriceBatch(frame); err == nil {
			t.Errorf("%s: decode accepted a malformed frame", name)
		} else if !strings.Contains(err.Error(), ErrFrame.Error()) {
			t.Errorf("%s: error %v does not wrap ErrFrame", name, err)
		}
	}
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

func TestEncodeRejectsRagged(t *testing.T) {
	ragged := &api.BatchPriceRequest{
		Rounds: []api.BatchPriceRound{
			{Features: []float64{1, 2}, Reserve: 0},
			{Features: []float64{1}, Reserve: 0},
		},
	}
	if canEncodePriceBatch(ragged.Rounds) {
		t.Error("canEncodePriceBatch accepted a ragged batch")
	}
	if _, err := Append(nil, ragged); err == nil {
		t.Error("Append encoded a ragged batch")
	}
}

// TestEncodeRejectsUncarriableTrade pins that a trade whose owner count
// or support index falls outside the frame's uint32 columns is an encode
// error (the SDK then sends the batch as JSON), and that the failed
// append leaves the caller's buffer as it was.
func TestEncodeRejectsUncarriableTrade(t *testing.T) {
	ok := api.TradeRequest{Owners: 4, Support: []int{1}, Weights: []float64{1}, NoiseVariance: 1}
	for name, bad := range map[string]api.TradeRequest{
		"negative owners":        {Owners: -4, Support: []int{1}, Weights: []float64{1}, NoiseVariance: 1},
		"negative support index": {Owners: 4, Support: []int{2, -1}, Weights: []float64{1, 1}, NoiseVariance: 1},
		"support index past uint32": {
			Owners: 4, Support: []int{math.MaxUint32 + 1}, Weights: []float64{1}, NoiseVariance: 1,
		},
	} {
		prefix := []byte("prefix")
		got, err := Append(prefix, &api.TradeBatchRequest{Trades: []api.TradeRequest{ok, bad}})
		if err == nil {
			t.Errorf("%s: Append encoded a trade the frame cannot carry", name)
		}
		if string(got) != "prefix" {
			t.Errorf("%s: failed Append returned %q, want the buffer unchanged", name, got)
		}
	}
}

// TestDecodeRejectsTradeFrames pins the trade frame's own bounds: the
// per-trade support and weight counts, and the exact payload length
// they imply.
func TestDecodeRejectsTradeFrames(t *testing.T) {
	good, err := Append(nil, &api.TradeBatchRequest{Trades: []api.TradeRequest{
		{Owners: 8, Support: []int{1, 5}, Weights: []float64{1, 2}, NoiseVariance: 1, Valuation: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	// k=1: owners at 12, slens at 16, wlens at 20 (header 8 + k 4).
	cases := map[string][]byte{
		"truncated":         good[:len(good)-1],
		"oversized":         append(append([]byte(nil), good...), 0),
		"huge support":      mutate(func(b []byte) { putU32(b[16:], MaxDim+1) }),
		"huge weights":      mutate(func(b []byte) { putU32(b[20:], MaxDim+1) }),
		"support too long":  mutate(func(b []byte) { putU32(b[16:], 3) }),
		"columns truncated": good[:headerSize+4+4],
		"nan weight":        mutate(func(b []byte) { putU64(b[len(b)-8:], math.Float64bits(math.NaN())) }),
	}
	var d Decoder
	for name, frame := range cases {
		if _, err := d.TradeBatch(frame); err == nil {
			t.Errorf("%s: decode accepted a malformed frame", name)
		} else if !strings.Contains(err.Error(), ErrFrame.Error()) {
			t.Errorf("%s: error %v does not wrap ErrFrame", name, err)
		}
	}
}

func TestEncodeRejectsOversizedStreamID(t *testing.T) {
	long := strings.Repeat("s", 1<<16)
	m := &api.MultiBatchPriceRequest{
		Rounds: []api.MultiBatchRound{{StreamID: long, Features: []float64{1}, Reserve: 0}},
	}
	if canEncodeMultiBatch(m.Rounds) {
		t.Error("canEncodeMultiBatch accepted a 64KB stream ID")
	}
	if _, err := Append(nil, m); err == nil {
		t.Error("Append encoded a 64KB stream ID")
	}
}

// TestDecodeUnknownDecision pins that response decoding rejects decision
// bytes outside the enum rather than inventing strings.
func TestDecodeUnknownDecision(t *testing.T) {
	buf, err := Append(nil, &api.PriceResponse{Price: 1, Decision: "skip"})
	if err != nil {
		t.Fatal(err)
	}
	buf[headerSize+1] = 0x7f
	var d Decoder
	if _, err := d.PriceResponse(buf); err == nil {
		t.Error("decode accepted an unknown decision byte")
	}
}

func TestEncodeUnknownDecision(t *testing.T) {
	if _, err := Append(nil, &api.PriceResponse{Decision: "bogus"}); err == nil {
		t.Error("Append accepted an unknown decision string")
	}
}
