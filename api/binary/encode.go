package binary

import (
	"encoding/binary"
	"fmt"
	"math"

	"datamarket/api"
)

// The Append* encoders append one complete frame to buf and return the
// extended slice, in the append(dst, src...) idiom: passing a buffer
// with spare capacity (e.g. one drawn from a sync.Pool) makes the
// steady-state encode allocation-free. Request encoders fail only for
// messages their frame cannot express (see each encoder); response
// encoders return an error only for decision strings the enum does not
// cover, which a conforming server never produces.

// Low-level little-endian appenders.

func appendU16(buf []byte, v uint16) []byte {
	return binary.LittleEndian.AppendUint16(buf, v)
}

func appendU32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

func appendU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendF64s(buf []byte, vs []float64) []byte {
	for _, v := range vs {
		buf = appendF64(buf, v)
	}
	return buf
}

// appendHeader opens a frame: magic, version, kind, zero reserved bits.
func appendHeader(buf []byte, kind Kind) []byte {
	buf = appendU32(buf, Magic)
	buf = append(buf, Version, uint8(kind))
	return appendU16(buf, 0)
}

// Valuation flag bits shared by the request payloads.
const flagHasValuation = 1 << 0

// AppendPriceRequest encodes one single-round pricing request
// (KindPriceRequest). Payload:
//
//	flags     uint8   bit0: valuation present
//	dim       uint32
//	reserve   float64
//	valuation float64 (present iff flags bit0)
//	features  dim × float64
func AppendPriceRequest(buf []byte, req *api.PriceRequest) []byte {
	buf = appendHeader(buf, KindPriceRequest)
	var flags uint8
	if req.Valuation != nil {
		flags |= flagHasValuation
	}
	buf = append(buf, flags)
	buf = appendU32(buf, uint32(len(req.Features)))
	buf = appendF64(buf, req.Reserve)
	if req.Valuation != nil {
		buf = appendF64(buf, *req.Valuation)
	}
	return appendF64s(buf, req.Features)
}

// AppendPriceBatchRequest encodes a per-stream price batch
// (KindPriceBatchRequest) in the columnar layout. All rounds of a
// per-stream batch share the stream's dimension, so the frame carries
// one dims header and packed columns — a decoder validates the whole
// frame with one bounds check. Payload:
//
//	k         uint32            rounds
//	dim       uint32            features per round
//	features  k × dim × float64 round-major
//	reserves  k × float64
//	valflags  k × uint8         bit0: valuation present
//	vals      k × float64       slot ignored when bit0 clear
//
// Rounds whose feature count differs from rounds[0] cannot be expressed
// in this frame — encoding such a (server-invalid) batch returns an
// error; send it as JSON instead, where the server rejects it per-round.
// The SDK does exactly that: it falls back to JSON when Append fails.
func AppendPriceBatchRequest(buf []byte, req *api.BatchPriceRequest) ([]byte, error) {
	if !canEncodePriceBatch(req.Rounds) {
		return buf, fmt.Errorf("binary: ragged price batch (rounds differ in feature count) is not expressible in the columnar frame")
	}
	buf = appendHeader(buf, KindPriceBatchRequest)
	dim := 0
	if len(req.Rounds) > 0 {
		dim = len(req.Rounds[0].Features)
	}
	buf = appendU32(buf, uint32(len(req.Rounds)))
	buf = appendU32(buf, uint32(dim))
	for i := range req.Rounds {
		buf = appendF64s(buf, req.Rounds[i].Features)
	}
	for i := range req.Rounds {
		buf = appendF64(buf, req.Rounds[i].Reserve)
	}
	for i := range req.Rounds {
		if req.Rounds[i].Valuation != nil {
			buf = append(buf, flagHasValuation)
		} else {
			buf = append(buf, 0)
		}
	}
	for i := range req.Rounds {
		if v := req.Rounds[i].Valuation; v != nil {
			buf = appendF64(buf, *v)
		} else {
			buf = appendF64(buf, 0)
		}
	}
	return buf, nil
}

// canEncodePriceBatch reports whether the batch is expressible in the
// columnar frame: every round carries the same feature count.
func canEncodePriceBatch(rounds []api.BatchPriceRound) bool {
	if len(rounds) == 0 {
		return true
	}
	dim := len(rounds[0].Features)
	for i := 1; i < len(rounds); i++ {
		if len(rounds[i].Features) != dim {
			return false
		}
	}
	return true
}

// AppendMultiBatchRequest encodes a multi-stream price batch
// (KindMultiBatchRequest). Stream IDs are deduplicated into a table so a
// batch with k rounds over g streams carries each ID once. Payload:
//
//	n        uint32   stream-ID table entries
//	entries  n × { len uint16, bytes }
//	k        uint32   rounds
//	rounds   k × { id uint32, dim uint32, flags uint8,
//	               reserve float64, valuation float64 (iff flags bit0),
//	               features dim × float64 }
//
// Unlike the per-stream frame this layout is row-major: rounds of a
// multi-stream batch have per-stream dimensions, so there is no shared
// dims header to hoist. Building the ID table allocates (one map plus
// the table itself), amortized across the batch. A stream ID longer than
// the uint16 length prefix is an encode error (the server caps IDs far
// below this).
func AppendMultiBatchRequest(buf []byte, req *api.MultiBatchPriceRequest) ([]byte, error) {
	if !canEncodeMultiBatch(req.Rounds) {
		return buf, fmt.Errorf("binary: stream ID exceeds the frame's %d-byte limit", math.MaxUint16)
	}
	buf = appendHeader(buf, KindMultiBatchRequest)
	table := make(map[string]uint32, 8)
	order := make([]string, 0, 8)
	for i := range req.Rounds {
		id := req.Rounds[i].StreamID
		if _, ok := table[id]; !ok {
			table[id] = uint32(len(order))
			order = append(order, id)
		}
	}
	buf = appendU32(buf, uint32(len(order)))
	for _, id := range order {
		buf = appendU16(buf, uint16(len(id)))
		buf = append(buf, id...)
	}
	buf = appendU32(buf, uint32(len(req.Rounds)))
	for i := range req.Rounds {
		rd := &req.Rounds[i]
		buf = appendU32(buf, table[rd.StreamID])
		buf = appendU32(buf, uint32(len(rd.Features)))
		buf = appendValuationFlag(buf, rd.Valuation)
		buf = appendF64(buf, rd.Reserve)
		if rd.Valuation != nil {
			buf = appendF64(buf, *rd.Valuation)
		}
		buf = appendF64s(buf, rd.Features)
	}
	return buf, nil
}

// appendValuationFlag writes just the presence flag byte.
func appendValuationFlag(buf []byte, v *float64) []byte {
	if v != nil {
		return append(buf, flagHasValuation)
	}
	return append(buf, 0)
}

// canEncodeMultiBatch reports whether the batch is expressible in the
// frame: every stream ID fits the uint16 length prefix. (The server caps
// IDs well below this; the check makes a pathological batch an encode
// error, on which the SDK falls back to JSON, rather than a truncation.)
func canEncodeMultiBatch(rounds []api.MultiBatchRound) bool {
	for i := range rounds {
		if len(rounds[i].StreamID) > math.MaxUint16 {
			return false
		}
	}
	return true
}

// AppendTradeBatchRequest encodes a market trade batch
// (KindTradeBatchRequest) in the columnar layout. Each trade travels in
// the form it has: a dense trade (Owners zero) as its weights, a sparse
// trade as its owner count, support indices and aligned weights. Indices
// and weights are concatenated into packed columns with per-trade length
// columns, so malformed trades (ragged weight counts, support and weight
// counts that differ, out-of-range indices) are expressible and fail
// server-side with the same per-trade errors as JSON. Payload:
//
//	k        uint32            trades
//	owners   k × uint32        owner count of a sparse trade, 0 if dense
//	slens    k × uint32        support indices per trade
//	wlens    k × uint32        weights per trade
//	noise    k × float64       noise variances
//	vals     k × float64       valuations
//	support  Σslens × uint32   concatenated
//	weights  Σwlens × float64  concatenated
//
// An owner count or support index outside the uint32 range (a negative
// one, say) is not expressible: encoding it returns an error, and the
// SDK sends such a batch as JSON, where the server rejects the trade.
func AppendTradeBatchRequest(buf []byte, req *api.TradeBatchRequest) ([]byte, error) {
	start := len(buf)
	buf = appendHeader(buf, KindTradeBatchRequest)
	buf = appendU32(buf, uint32(len(req.Trades)))
	for i := range req.Trades {
		o := req.Trades[i].Owners
		if !fitsU32(o) {
			return buf[:start], fmt.Errorf("binary: trade %d: owner count %d does not fit the frame's uint32 column", i, o)
		}
		buf = appendU32(buf, uint32(o))
	}
	for i := range req.Trades {
		buf = appendU32(buf, uint32(len(req.Trades[i].Support)))
	}
	for i := range req.Trades {
		buf = appendU32(buf, uint32(len(req.Trades[i].Weights)))
	}
	for i := range req.Trades {
		buf = appendF64(buf, req.Trades[i].NoiseVariance)
	}
	for i := range req.Trades {
		buf = appendF64(buf, req.Trades[i].Valuation)
	}
	for i := range req.Trades {
		for _, j := range req.Trades[i].Support {
			if !fitsU32(j) {
				return buf[:start], fmt.Errorf("binary: trade %d: support index %d does not fit the frame's uint32 column", i, j)
			}
			buf = appendU32(buf, uint32(j))
		}
	}
	for i := range req.Trades {
		buf = appendF64s(buf, req.Trades[i].Weights)
	}
	return buf, nil
}

// fitsU32 reports whether v is expressible in a uint32 column.
func fitsU32(v int) bool { return v >= 0 && uint64(v) <= math.MaxUint32 }

// Response flag bits.
const (
	flagReserveBinding = 1 << 0
	flagHasAccepted    = 1 << 1
	flagAccepted       = 1 << 2
	flagHasError       = 1 << 3
	flagSold           = 1 << 0 // trade results
	flagTradeError     = 1 << 1 // trade results
)

// priceRespFlags packs one PriceResponse's booleans.
func priceRespFlags(r *api.PriceResponse) uint8 {
	var flags uint8
	if r.ReserveBinding {
		flags |= flagReserveBinding
	}
	if r.Accepted != nil {
		flags |= flagHasAccepted
		if *r.Accepted {
			flags |= flagAccepted
		}
	}
	return flags
}

// AppendPriceResponse encodes one quote (KindPriceResponse). Payload:
//
//	flags    uint8   bit0: reserve binding, bit1: accepted present, bit2: accepted
//	decision uint8   0 none, 1 skip, 2 exploratory, 3 conservative
//	price    float64
//	lower    float64
//	upper    float64
func AppendPriceResponse(buf []byte, resp *api.PriceResponse) ([]byte, error) {
	dec, err := encodeDecision(resp.Decision)
	if err != nil {
		return buf, err
	}
	buf = appendHeader(buf, KindPriceResponse)
	buf = append(buf, priceRespFlags(resp), dec)
	buf = appendF64(buf, resp.Price)
	buf = appendF64(buf, resp.Lower)
	return appendF64(buf, resp.Upper), nil
}

// AppendBatchResponse encodes the per-round results of a price batch
// (KindBatchResponse) in the columnar layout. Payload:
//
//	k         uint32
//	prices    k × float64
//	lowers    k × float64
//	uppers    k × float64
//	flags     k × uint8   bit0 reserve binding, bit1 accepted present,
//	                      bit2 accepted, bit3 error present
//	decisions k × uint8
//	errors    one { len uint32, bytes } per set bit3, in round order
func AppendBatchResponse(buf []byte, resp *api.BatchPriceResponse) ([]byte, error) {
	buf = appendHeader(buf, KindBatchResponse)
	buf = appendU32(buf, uint32(len(resp.Results)))
	for i := range resp.Results {
		buf = appendF64(buf, resp.Results[i].Price)
	}
	for i := range resp.Results {
		buf = appendF64(buf, resp.Results[i].Lower)
	}
	for i := range resp.Results {
		buf = appendF64(buf, resp.Results[i].Upper)
	}
	for i := range resp.Results {
		r := &resp.Results[i]
		flags := priceRespFlags(&r.PriceResponse)
		if r.Error != "" {
			flags |= flagHasError
		}
		buf = append(buf, flags)
	}
	for i := range resp.Results {
		dec, err := encodeDecision(resp.Results[i].Decision)
		if err != nil {
			return buf, fmt.Errorf("result %d: %w", i, err)
		}
		buf = append(buf, dec)
	}
	for i := range resp.Results {
		if e := resp.Results[i].Error; e != "" {
			buf = appendU32(buf, uint32(len(e)))
			buf = append(buf, e...)
		}
	}
	return buf, nil
}

// AppendTradeBatchResponse encodes the per-trade results of a trade
// batch (KindTradeBatchResponse) in the columnar layout. Payload:
//
//	k         uint32
//	rounds    k × uint64
//	reserves, posteds, revenues, compensations,
//	profits, answers, regrets   7 columns, each k × float64
//	flags     k × uint8   bit0 sold, bit1 error present
//	decisions k × uint8
//	errors    one { len uint32, bytes } per set bit1, in trade order
func AppendTradeBatchResponse(buf []byte, resp *api.TradeBatchResponse) ([]byte, error) {
	buf = appendHeader(buf, KindTradeBatchResponse)
	buf = appendU32(buf, uint32(len(resp.Results)))
	for i := range resp.Results {
		buf = appendU64(buf, uint64(resp.Results[i].Round))
	}
	for _, col := range [7]func(*api.TradeResult) float64{
		func(t *api.TradeResult) float64 { return t.Reserve },
		func(t *api.TradeResult) float64 { return t.Posted },
		func(t *api.TradeResult) float64 { return t.Revenue },
		func(t *api.TradeResult) float64 { return t.Compensation },
		func(t *api.TradeResult) float64 { return t.Profit },
		func(t *api.TradeResult) float64 { return t.Answer },
		func(t *api.TradeResult) float64 { return t.Regret },
	} {
		for i := range resp.Results {
			buf = appendF64(buf, col(&resp.Results[i].TradeResult))
		}
	}
	for i := range resp.Results {
		r := &resp.Results[i]
		var flags uint8
		if r.Sold {
			flags |= flagSold
		}
		if r.Error != "" {
			flags |= flagTradeError
		}
		buf = append(buf, flags)
	}
	for i := range resp.Results {
		dec, err := encodeDecision(resp.Results[i].Decision)
		if err != nil {
			return buf, fmt.Errorf("result %d: %w", i, err)
		}
		buf = append(buf, dec)
	}
	for i := range resp.Results {
		if e := resp.Results[i].Error; e != "" {
			buf = appendU32(buf, uint32(len(e)))
			buf = append(buf, e...)
		}
	}
	return buf, nil
}

// Append encodes any codec-registered value (a pointer to one of the
// WireTypes entries) by dispatching on its type — the generic entry
// point the SDK's transport uses. It returns an error for types the
// codec does not carry.
func Append(buf []byte, v any) ([]byte, error) {
	switch m := v.(type) {
	case *api.PriceRequest:
		return AppendPriceRequest(buf, m), nil
	case *api.BatchPriceRequest:
		return AppendPriceBatchRequest(buf, m)
	case *api.MultiBatchPriceRequest:
		return AppendMultiBatchRequest(buf, m)
	case *api.TradeBatchRequest:
		return AppendTradeBatchRequest(buf, m)
	case *api.PriceResponse:
		return AppendPriceResponse(buf, m)
	case *api.BatchPriceResponse:
		return AppendBatchResponse(buf, m)
	case *api.TradeBatchResponse:
		return AppendTradeBatchResponse(buf, m)
	}
	return buf, fmt.Errorf("binary: type %T is not a codec wire type", v)
}
