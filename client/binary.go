package client

import (
	"context"
	"strconv"
	"sync"

	"datamarket/api"
	"datamarket/api/binary"
)

// WithBinary switches the hot pricing calls — Price, PriceBatch,
// PriceMulti (and therefore the Flusher), and TradeBatch — to the
// compact binary wire codec (api/binary) once the server has advertised
// this SDK's codec version via the X-Binary-Protocol response header.
// Until that header has been seen (the version probe's response carries
// it), and against servers that predate the codec or speak another
// version of it, the calls keep speaking JSON; enabling the option is
// always safe. Error responses stay the JSON envelope either way, so
// error handling is unaffected.
func WithBinary() Option { return func(c *Client) { c.useBinary = true } }

// protoVersion is the X-Binary-Protocol value of a server that speaks
// this SDK's codec version.
var protoVersion = strconv.Itoa(int(binary.Version))

// binaryActive reports whether hot calls should encode with the binary
// codec: the option is on and the server has advertised support.
func (c *Client) binaryActive() bool {
	return c.useBinary && c.binarySeen.Load()
}

// framePool holds encode scratch for outgoing binary frames, so a
// steady stream of hot calls reuses one grown buffer per goroutine
// instead of allocating a frame per request.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// doHot is do for the hot pricing endpoints: binary when the codec is
// active, JSON otherwise. in must be a pointer to a codec wire type.
func (c *Client) doHot(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	if err := c.ensureCompatible(ctx); err != nil {
		return err
	}
	if !c.binaryActive() {
		return c.roundTrip(ctx, method, path, in, out, idempotent)
	}
	return c.sendBinary(ctx, method, path, in, out, idempotent)
}

// sendBinary frames the request with api/binary and asks for a binary
// response, falling back to JSON for the rare message the codec cannot
// carry (ragged batches, oversized stream IDs, negative trade indices —
// the server then applies its per-round validation). The caller has
// checked that the codec is active.
func (c *Client) sendBinary(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	scratch := framePool.Get().(*[]byte)
	frame, err := binary.Append((*scratch)[:0], in)
	if err != nil {
		framePool.Put(scratch)
		return c.roundTrip(ctx, method, path, in, out, idempotent)
	}
	*scratch = frame
	err = c.roundTripBytes(ctx, method, path, frame, binary.ContentType, out, idempotent)
	framePool.Put(scratch)
	return err
}

// sparseBatch is pooled scratch for sending a trade batch in the sparse
// form: the rewritten trades, one backing array each for their support
// indices and weights, and each trade's end offset into those arrays.
type sparseBatch struct {
	trades  []api.TradeRequest
	support []int
	weights []float64
	ends    []int
}

var sparsePool = sync.Pool{New: func() any { return new(sparseBatch) }}

// sparsify returns trades with every dense trade rewritten into the
// sparse form, built in one pass over its weights into b's scratch.
// A weight joins the support iff w != 0, the rule the server applies to
// dense weights, so both forms settle identically; trades already in
// the sparse form pass through. The result aliases b until the next
// call.
func (b *sparseBatch) sparsify(trades []api.TradeRequest) []api.TradeRequest {
	b.support, b.weights, b.ends = b.support[:0], b.weights[:0], b.ends[:0]
	for k := range trades {
		if trades[k].Owners == 0 {
			for i, w := range trades[k].Weights {
				if w != 0 {
					b.support = append(b.support, i)
					b.weights = append(b.weights, w)
				}
			}
		}
		b.ends = append(b.ends, len(b.support))
	}
	// Slice the backing arrays only now: appends above may move them.
	b.trades = append(b.trades[:0], trades...)
	start := 0
	for k := range b.trades {
		t, end := &b.trades[k], b.ends[k]
		if t.Owners == 0 {
			t.Owners = len(t.Weights)
			t.Support = b.support[start:end:end]
			t.Weights = b.weights[start:end:end]
		}
		start = end
	}
	return b.trades
}
