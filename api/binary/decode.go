package binary

import (
	"encoding/binary"
	"math"

	"datamarket/api"
)

// Decoder decodes frames into reusable scratch: the returned messages
// (and every slice and pointer inside them) alias the Decoder's internal
// buffers and stay valid only until its next decode call. Reusing one
// Decoder per connection or drawing them from a sync.Pool makes the
// steady-state decode of the batch frames allocation-free — the packed
// feature columns land in one preallocated backing array with a single
// bounds check up front.
//
// A Decoder is not safe for concurrent use. The zero value is ready.
//
// Callers that need results to outlive the Decoder (the SDK's response
// path) use the package-level Decode* helpers, which decode through a
// fresh Decoder so the result owns its memory.
type Decoder struct {
	priceReq  api.PriceRequest
	batchReq  api.BatchPriceRequest
	multiReq  api.MultiBatchPriceRequest
	tradeReq  api.TradeBatchRequest
	priceResp api.PriceResponse
	batchResp api.BatchPriceResponse
	tradeResp api.TradeBatchResponse

	features     []float64 // packed features / weights backing store
	support      []int     // packed trade support indices backing store
	vals         []float64 // valuation backing store (Valuation pointers)
	rounds       []api.BatchPriceRound
	multiRounds  []api.MultiBatchRound
	trades       []api.TradeRequest
	ids          []string // multi-batch stream-ID table (entries reused when unchanged)
	results      []api.BatchRoundResult
	tradeResults []api.TradeBatchResult
	accepted     []bool // Accepted pointers point here
}

// grow returns s resized to n elements, reusing capacity when possible.
// Contents are not preserved.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// header validates the frame header and returns the payload.
func header(data []byte, want Kind) ([]byte, error) {
	if len(data) < headerSize {
		return nil, frameErrorf("%d bytes, shorter than the %d-byte header", len(data), headerSize)
	}
	if m := binary.LittleEndian.Uint32(data); m != Magic {
		return nil, frameErrorf("bad magic 0x%08x", m)
	}
	if v := data[4]; v != Version {
		return nil, frameErrorf("unsupported codec version %d (this build speaks %d)", v, Version)
	}
	if k := Kind(data[5]); k != want {
		return nil, frameErrorf("frame is %s, expected %s", k, want)
	}
	if r := binary.LittleEndian.Uint16(data[6:]); r != 0 {
		return nil, frameErrorf("reserved header bits 0x%04x must be zero", r)
	}
	return data[headerSize:], nil
}

// u32At / u64At / f64At read little-endian values at off; bounds are
// the caller's responsibility (batch decoders validate the full payload
// length once up front).
func u32At(b []byte, off int) uint32 {
	return binary.LittleEndian.Uint32(b[off:])
}

func u64At(b []byte, off int) uint64 {
	return binary.LittleEndian.Uint64(b[off:])
}

// f64At decodes the float at off, rejecting NaN and ±Inf — values JSON
// cannot carry either, so both codecs accept the same message set and a
// binary frame cannot smuggle a non-finite float past validation that a
// JSON body would have failed.
func f64At(b []byte, off int) (float64, error) {
	v := math.Float64frombits(u64At(b, off))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, frameErrorf("non-finite float at offset %d", off)
	}
	return v, nil
}

// f64Column copies n packed floats at off into dst, validating
// finiteness.
func f64Column(b []byte, off, n int, dst []float64) error {
	for i := 0; i < n; i++ {
		v, err := f64At(b, off+8*i)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// PriceRequest decodes a KindPriceRequest frame. The returned request
// aliases the Decoder's scratch.
func (d *Decoder) PriceRequest(data []byte) (*api.PriceRequest, error) {
	p, err := header(data, KindPriceRequest)
	if err != nil {
		return nil, err
	}
	if len(p) < 13 { // flags + dim + reserve
		return nil, frameErrorf("price request payload truncated at %d bytes", len(p))
	}
	flags := p[0]
	if flags&^uint8(flagHasValuation) != 0 {
		return nil, frameErrorf("unknown request flag bits 0x%02x", flags)
	}
	dim := binary.LittleEndian.Uint32(p[1:])
	if dim > MaxDim {
		return nil, frameErrorf("dimension %d exceeds frame limit %d", dim, MaxDim)
	}
	hasVal := flags&flagHasValuation != 0
	off := 13
	expected := uint64(off) + 8*uint64(dim)
	if hasVal {
		expected += 8
	}
	if uint64(len(p)) != expected {
		return nil, frameErrorf("price request payload is %d bytes, want %d", len(p), expected)
	}
	req := &d.priceReq
	*req = api.PriceRequest{}
	if req.Reserve, err = f64At(p, 5); err != nil {
		return nil, err
	}
	if hasVal {
		d.vals = grow(d.vals, 1)
		if d.vals[0], err = f64At(p, off); err != nil {
			return nil, err
		}
		req.Valuation = &d.vals[0]
		off += 8
	}
	d.features = grow(d.features, int(dim))
	if err := f64Column(p, off, int(dim), d.features); err != nil {
		return nil, err
	}
	req.Features = d.features
	return req, nil
}

// PriceBatch decodes a KindPriceBatchRequest frame: one bounds check
// against the size implied by the k×dim header, then packed column
// copies into the Decoder's scratch. The returned request and every
// round in it alias that scratch.
func (d *Decoder) PriceBatch(data []byte) (*api.BatchPriceRequest, error) {
	p, err := header(data, KindPriceBatchRequest)
	if err != nil {
		return nil, err
	}
	if len(p) < 8 {
		return nil, frameErrorf("batch payload truncated at %d bytes", len(p))
	}
	k := binary.LittleEndian.Uint32(p)
	dim := binary.LittleEndian.Uint32(p[4:])
	if k > api.MaxBatchRounds {
		return nil, frameErrorf("batch of %d rounds exceeds limit %d", k, api.MaxBatchRounds)
	}
	if dim > MaxDim {
		return nil, frameErrorf("dimension %d exceeds frame limit %d", dim, MaxDim)
	}
	// The one bounds check: every column offset below is within p.
	expected := 8 + uint64(k)*(17+8*uint64(dim))
	if uint64(len(p)) != expected {
		return nil, frameErrorf("batch payload is %d bytes, want %d for k=%d dim=%d", len(p), expected, k, dim)
	}
	n, nd := int(k), int(dim)
	featOff := 8
	resOff := featOff + 8*n*nd
	flagOff := resOff + 8*n
	valOff := flagOff + n

	d.features = grow(d.features, n*nd)
	if err := f64Column(p, featOff, n*nd, d.features); err != nil {
		return nil, err
	}
	d.vals = grow(d.vals, n)
	d.rounds = grow(d.rounds, n)
	for i := 0; i < n; i++ {
		flags := p[flagOff+i]
		if flags&^uint8(flagHasValuation) != 0 {
			return nil, frameErrorf("round %d: unknown flag bits 0x%02x", i, flags)
		}
		rd := &d.rounds[i]
		rd.Features = d.features[i*nd : (i+1)*nd : (i+1)*nd]
		if rd.Reserve, err = f64At(p, resOff+8*i); err != nil {
			return nil, err
		}
		if flags&flagHasValuation != 0 {
			if d.vals[i], err = f64At(p, valOff+8*i); err != nil {
				return nil, err
			}
			rd.Valuation = &d.vals[i]
		} else {
			rd.Valuation = nil
		}
	}
	d.batchReq.Rounds = d.rounds
	return &d.batchReq, nil
}

// MultiBatch decodes a KindMultiBatchRequest frame. The returned request
// aliases the Decoder's scratch; stream-ID table entries are reused
// verbatim from the previous decode when unchanged, so a Flusher-shaped
// workload (same streams every batch) decodes without string
// allocations.
func (d *Decoder) MultiBatch(data []byte) (*api.MultiBatchPriceRequest, error) {
	p, err := header(data, KindMultiBatchRequest)
	if err != nil {
		return nil, err
	}
	off := 0
	u32 := func() (uint32, bool) {
		if off+4 > len(p) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(p[off:])
		off += 4
		return v, true
	}
	n, ok := u32()
	if !ok || n > api.MaxBatchRounds {
		return nil, frameErrorf("stream table of %d entries invalid (limit %d)", n, api.MaxBatchRounds)
	}
	if cap(d.ids) < int(n) {
		ids := make([]string, n)
		copy(ids, d.ids)
		d.ids = ids
	} else {
		d.ids = d.ids[:n]
	}
	for i := 0; i < int(n); i++ {
		if off+2 > len(p) {
			return nil, frameErrorf("stream table truncated at entry %d", i)
		}
		l := int(binary.LittleEndian.Uint16(p[off:]))
		off += 2
		if off+l > len(p) {
			return nil, frameErrorf("stream table entry %d truncated", i)
		}
		raw := p[off : off+l]
		off += l
		if d.ids[i] != string(raw) { // comparison does not allocate
			d.ids[i] = string(raw)
		}
	}
	k, ok := u32()
	if !ok || k > api.MaxBatchRounds {
		return nil, frameErrorf("batch of %d rounds invalid (limit %d)", k, api.MaxBatchRounds)
	}
	d.multiRounds = grow(d.multiRounds, int(k))

	// First pass: walk the rounds to size the packed feature store, so
	// the second pass decodes into stable memory.
	totalFeat := 0
	walk := off
	for i := 0; i < int(k); i++ {
		if walk+9 > len(p) {
			return nil, frameErrorf("round %d header truncated", i)
		}
		dim := binary.LittleEndian.Uint32(p[walk+4:])
		flags := p[walk+8]
		if dim > MaxDim {
			return nil, frameErrorf("round %d: dimension %d exceeds frame limit %d", i, dim, MaxDim)
		}
		if flags&^uint8(flagHasValuation) != 0 {
			return nil, frameErrorf("round %d: unknown flag bits 0x%02x", i, flags)
		}
		walk += 9 + 8 // header + reserve
		if flags&flagHasValuation != 0 {
			walk += 8
		}
		walk += 8 * int(dim)
		if walk > len(p) {
			return nil, frameErrorf("round %d truncated", i)
		}
		totalFeat += int(dim)
	}
	if walk != len(p) {
		return nil, frameErrorf("%d trailing bytes after %d rounds", len(p)-walk, k)
	}
	d.features = grow(d.features, totalFeat)
	d.vals = grow(d.vals, int(k))

	feat := 0
	for i := 0; i < int(k); i++ {
		idx := binary.LittleEndian.Uint32(p[off:])
		dim := int(binary.LittleEndian.Uint32(p[off+4:]))
		flags := p[off+8]
		off += 9
		if idx >= n {
			return nil, frameErrorf("round %d references stream table entry %d of %d", i, idx, n)
		}
		rd := &d.multiRounds[i]
		rd.StreamID = d.ids[idx]
		if rd.Reserve, err = f64At(p, off); err != nil {
			return nil, err
		}
		off += 8
		if flags&flagHasValuation != 0 {
			if d.vals[i], err = f64At(p, off); err != nil {
				return nil, err
			}
			rd.Valuation = &d.vals[i]
			off += 8
		} else {
			rd.Valuation = nil
		}
		dst := d.features[feat : feat+dim : feat+dim]
		if err := f64Column(p, off, dim, dst); err != nil {
			return nil, err
		}
		rd.Features = dst
		feat += dim
		off += 8 * dim
	}
	d.multiReq.Rounds = d.multiRounds
	return &d.multiReq, nil
}

// TradeBatch decodes a KindTradeBatchRequest frame. The returned request
// aliases the Decoder's scratch. A trade with no support indices decodes
// with a nil Support, as the JSON form omits it.
func (d *Decoder) TradeBatch(data []byte) (*api.TradeBatchRequest, error) {
	p, err := header(data, KindTradeBatchRequest)
	if err != nil {
		return nil, err
	}
	if len(p) < 4 {
		return nil, frameErrorf("trade batch payload truncated at %d bytes", len(p))
	}
	k := binary.LittleEndian.Uint32(p)
	if k > api.MaxBatchRounds {
		return nil, frameErrorf("batch of %d trades exceeds limit %d", k, api.MaxBatchRounds)
	}
	n := int(k)
	ownersOff := 4
	slenOff := ownersOff + 4*n
	wlenOff := slenOff + 4*n
	noiseOff := wlenOff + 4*n
	valOff := noiseOff + 8*n
	supOff := valOff + 8*n
	if len(p) < supOff {
		return nil, frameErrorf("trade batch payload is %d bytes, columns need %d", len(p), supOff)
	}
	var totalS, totalW uint64
	for i := 0; i < n; i++ {
		s := u32At(p, slenOff+4*i)
		w := u32At(p, wlenOff+4*i)
		if s > MaxDim {
			return nil, frameErrorf("trade %d: %d support indices exceed frame limit %d", i, s, MaxDim)
		}
		if w > MaxDim {
			return nil, frameErrorf("trade %d: %d weights exceed frame limit %d", i, w, MaxDim)
		}
		totalS += uint64(s)
		totalW += uint64(w)
	}
	weightOff := uint64(supOff) + 4*totalS
	if expected := weightOff + 8*totalW; uint64(len(p)) != expected {
		return nil, frameErrorf("trade batch payload is %d bytes, want %d", len(p), expected)
	}
	d.support = grow(d.support, int(totalS))
	for j := range d.support {
		d.support[j] = int(u32At(p, supOff+4*j))
	}
	d.features = grow(d.features, int(totalW))
	if err := f64Column(p, int(weightOff), int(totalW), d.features); err != nil {
		return nil, err
	}
	d.trades = grow(d.trades, n)
	sOff, wOff := 0, 0
	for i := 0; i < n; i++ {
		t := &d.trades[i]
		t.Owners = int(u32At(p, ownersOff+4*i))
		s := int(u32At(p, slenOff+4*i))
		t.Support = nil
		if s > 0 {
			t.Support = d.support[sOff : sOff+s : sOff+s]
		}
		sOff += s
		w := int(u32At(p, wlenOff+4*i))
		t.Weights = d.features[wOff : wOff+w : wOff+w]
		wOff += w
		if t.NoiseVariance, err = f64At(p, noiseOff+8*i); err != nil {
			return nil, err
		}
		if t.Valuation, err = f64At(p, valOff+8*i); err != nil {
			return nil, err
		}
	}
	d.tradeReq.Trades = d.trades
	return &d.tradeReq, nil
}

// priceRespFromWire unpacks one response's flag byte and decision.
func priceRespFromWire(flags, dec uint8, dst *api.PriceResponse, acc *bool) error {
	if flags&^uint8(flagReserveBinding|flagHasAccepted|flagAccepted|flagHasError) != 0 {
		return frameErrorf("unknown response flag bits 0x%02x", flags)
	}
	if flags&flagAccepted != 0 && flags&flagHasAccepted == 0 {
		return frameErrorf("accepted bit set without presence bit")
	}
	decision, err := decodeDecision(dec)
	if err != nil {
		return err
	}
	dst.Decision = decision
	dst.ReserveBinding = flags&flagReserveBinding != 0
	if flags&flagHasAccepted != 0 {
		*acc = flags&flagAccepted != 0
		dst.Accepted = acc
	} else {
		dst.Accepted = nil
	}
	return nil
}

// PriceResponse decodes a KindPriceResponse frame. The returned response
// aliases the Decoder's scratch.
func (d *Decoder) PriceResponse(data []byte) (*api.PriceResponse, error) {
	p, err := header(data, KindPriceResponse)
	if err != nil {
		return nil, err
	}
	if len(p) != 26 {
		return nil, frameErrorf("price response payload is %d bytes, want 26", len(p))
	}
	resp := &d.priceResp
	*resp = api.PriceResponse{}
	d.accepted = grow(d.accepted, 1)
	if err := priceRespFromWire(p[0]&^uint8(flagHasError), p[1], resp, &d.accepted[0]); err != nil {
		return nil, err
	}
	if p[0]&flagHasError != 0 {
		return nil, frameErrorf("error bit is not valid on a single price response")
	}
	if resp.Price, err = f64At(p, 2); err != nil {
		return nil, err
	}
	if resp.Lower, err = f64At(p, 10); err != nil {
		return nil, err
	}
	if resp.Upper, err = f64At(p, 18); err != nil {
		return nil, err
	}
	return resp, nil
}

// BatchResponse decodes a KindBatchResponse frame. The returned response
// aliases the Decoder's scratch; per-round error strings are the only
// allocations, one per errored round.
func (d *Decoder) BatchResponse(data []byte) (*api.BatchPriceResponse, error) {
	p, err := header(data, KindBatchResponse)
	if err != nil {
		return nil, err
	}
	if len(p) < 4 {
		return nil, frameErrorf("batch response payload truncated at %d bytes", len(p))
	}
	k := binary.LittleEndian.Uint32(p)
	if k > api.MaxBatchRounds {
		return nil, frameErrorf("batch of %d results exceeds limit %d", k, api.MaxBatchRounds)
	}
	n := int(k)
	priceOff := 4
	lowerOff := priceOff + 8*n
	upperOff := lowerOff + 8*n
	flagOff := upperOff + 8*n
	decOff := flagOff + n
	errOff := decOff + n
	if len(p) < errOff {
		return nil, frameErrorf("batch response payload is %d bytes, columns need %d", len(p), errOff)
	}
	d.results = grow(d.results, n)
	d.accepted = grow(d.accepted, n)
	off := errOff
	for i := 0; i < n; i++ {
		r := &d.results[i]
		*r = api.BatchRoundResult{}
		flags := p[flagOff+i]
		if err := priceRespFromWire(flags&^uint8(flagHasError), p[decOff+i], &r.PriceResponse, &d.accepted[i]); err != nil {
			return nil, frameErrorf("result %d: %v", i, err)
		}
		if r.Price, err = f64At(p, priceOff+8*i); err != nil {
			return nil, err
		}
		if r.Lower, err = f64At(p, lowerOff+8*i); err != nil {
			return nil, err
		}
		if r.Upper, err = f64At(p, upperOff+8*i); err != nil {
			return nil, err
		}
		if flags&flagHasError != 0 {
			if off+4 > len(p) {
				return nil, frameErrorf("result %d error length truncated", i)
			}
			l := int(binary.LittleEndian.Uint32(p[off:]))
			off += 4
			if off+l > len(p) {
				return nil, frameErrorf("result %d error string truncated", i)
			}
			r.Error = string(p[off : off+l])
			off += l
		}
	}
	if off != len(p) {
		return nil, frameErrorf("%d trailing bytes after %d results", len(p)-off, k)
	}
	d.batchResp.Results = d.results
	return &d.batchResp, nil
}

// TradeBatchResponse decodes a KindTradeBatchResponse frame. The
// returned response aliases the Decoder's scratch.
func (d *Decoder) TradeBatchResponse(data []byte) (*api.TradeBatchResponse, error) {
	p, err := header(data, KindTradeBatchResponse)
	if err != nil {
		return nil, err
	}
	if len(p) < 4 {
		return nil, frameErrorf("trade response payload truncated at %d bytes", len(p))
	}
	k := binary.LittleEndian.Uint32(p)
	if k > api.MaxBatchRounds {
		return nil, frameErrorf("batch of %d results exceeds limit %d", k, api.MaxBatchRounds)
	}
	n := int(k)
	roundOff := 4
	colOff := roundOff + 8*n // 7 float columns follow the round column
	flagOff := colOff + 7*8*n
	decOff := flagOff + n
	errOff := decOff + n
	if len(p) < errOff {
		return nil, frameErrorf("trade response payload is %d bytes, columns need %d", len(p), errOff)
	}
	d.tradeResults = grow(d.tradeResults, n)
	off := errOff
	for i := 0; i < n; i++ {
		r := &d.tradeResults[i]
		*r = api.TradeBatchResult{}
		r.Round = int(u64At(p, roundOff+8*i))
		cols := [7]*float64{
			&r.Reserve, &r.Posted, &r.Revenue, &r.Compensation,
			&r.Profit, &r.Answer, &r.Regret,
		}
		for c, dst := range cols {
			if *dst, err = f64At(p, colOff+8*(c*n+i)); err != nil {
				return nil, err
			}
		}
		flags := p[flagOff+i]
		if flags&^uint8(flagSold|flagTradeError) != 0 {
			return nil, frameErrorf("result %d: unknown flag bits 0x%02x", i, flags)
		}
		r.Sold = flags&flagSold != 0
		if r.Decision, err = decodeDecision(p[decOff+i]); err != nil {
			return nil, err
		}
		if flags&flagTradeError != 0 {
			if off+4 > len(p) {
				return nil, frameErrorf("result %d error length truncated", i)
			}
			l := int(binary.LittleEndian.Uint32(p[off:]))
			off += 4
			if off+l > len(p) {
				return nil, frameErrorf("result %d error string truncated", i)
			}
			r.Error = string(p[off : off+l])
			off += l
		}
	}
	if off != len(p) {
		return nil, frameErrorf("%d trailing bytes after %d results", len(p)-off, k)
	}
	d.tradeResp.Results = d.tradeResults
	return &d.tradeResp, nil
}

// DecodeInto decodes a frame into dst, which must point at one of the
// codec's wire types (see WireTypes); the frame's kind must match. The
// decoded value's slices and pointers alias the Decoder's scratch. This
// is the generic entry point the server's codec shim dispatches through.
func (d *Decoder) DecodeInto(data []byte, dst any) error {
	switch m := dst.(type) {
	case *api.PriceRequest:
		v, err := d.PriceRequest(data)
		if err != nil {
			return err
		}
		*m = *v
	case *api.BatchPriceRequest:
		v, err := d.PriceBatch(data)
		if err != nil {
			return err
		}
		*m = *v
	case *api.MultiBatchPriceRequest:
		v, err := d.MultiBatch(data)
		if err != nil {
			return err
		}
		*m = *v
	case *api.TradeBatchRequest:
		v, err := d.TradeBatch(data)
		if err != nil {
			return err
		}
		*m = *v
	case *api.PriceResponse:
		v, err := d.PriceResponse(data)
		if err != nil {
			return err
		}
		*m = *v
	case *api.BatchPriceResponse:
		v, err := d.BatchResponse(data)
		if err != nil {
			return err
		}
		*m = *v
	case *api.TradeBatchResponse:
		v, err := d.TradeBatchResponse(data)
		if err != nil {
			return err
		}
		*m = *v
	default:
		return frameErrorf("type %T is not a codec wire type", dst)
	}
	return nil
}

// Decode decodes a frame into dst through a fresh Decoder, so the result
// owns its memory (nothing is shared or reused). The SDK's response path
// uses this; servers on the hot path pool Decoders instead.
func Decode(data []byte, dst any) error {
	return new(Decoder).DecodeInto(data, dst)
}
