// Package binary is the compact wire codec for brokerd's hot pricing
// endpoints. It encodes the high-rate request/response types of package
// api — single-round pricing, per-stream and multi-stream price batches,
// and trade batches — as versioned, length-framed little-endian records
// with a columnar batch layout: one magic+version+dims header, then
// packed float64 feature columns and a packed result block, so a k-round
// batch decodes with one bounds check and one copy into preallocated
// per-stream scratch. No reflection is involved and the steady-state
// encode/decode path performs zero allocations when the caller reuses a
// Decoder and append buffers (pinned by AllocsPerRun tests).
//
// The codec is negotiated on the existing HTTP mux, not on a separate
// port: a request whose Content-Type is ContentType carries a binary
// body, and a request whose Accept header includes ContentType asks for
// a binary response body. JSON remains the default and the two encodings
// are equivalent in meaning — the cross-codec tests replay the golden
// JSON fixtures through both codecs and require identical values. Error
// responses are always the JSON error envelope regardless of Accept, so
// a client's error path never depends on the negotiation outcome.
//
// Servers advertise support with the ProtoHeader response header
// (stamped on every response); the SDK's WithBinary option switches the
// hot calls to this codec once it has seen the header and falls back to
// JSON against servers that predate it.
//
// # Frame layout
//
// Every message is one frame:
//
//	offset  size  field
//	0       4     magic   "DMB1" (0x44 0x4D 0x42 0x31)
//	4       1     version codec version (Version = 2)
//	5       1     kind    message kind (Kind* constants)
//	6       2     reserved, must be zero
//	8       …     payload (kind-specific, little-endian)
//
// Multi-byte integers and float64 bit patterns are little-endian. The
// payload layouts are documented on the Append* encoders. Decoders
// reject truncated or oversized frames, unknown versions and kinds,
// nonzero reserved bits, batch sizes beyond api.MaxBatchRounds, and
// non-finite floats (NaN/±Inf — values JSON cannot carry either, so the
// two codecs accept exactly the same set of messages).
package binary

import (
	"errors"
	"fmt"

	"datamarket/api"
)

// Negotiation constants.
const (
	// ContentType marks a binary-encoded HTTP body, on requests
	// (Content-Type) and responses (Accept / Content-Type).
	ContentType = "application/x-datamarket-binary"
	// ProtoHeader is the response header a binary-capable server stamps
	// on every response; its value is the codec Version it speaks, in
	// decimal. Clients switch to the codec only on their own Version.
	ProtoHeader = "X-Binary-Protocol"
)

// Frame constants.
const (
	// Magic opens every frame: "DMB1" read as a little-endian uint32.
	Magic uint32 = 0x31424D44
	// Version is the codec version written and accepted by this package.
	// Version 2 added the sparse form to the trade batch frame.
	Version uint8 = 2
	// headerSize is the fixed frame header length.
	headerSize = 8
)

// Kind identifies the message a frame carries. Request kinds have the
// high bit clear, response kinds have it set.
type Kind uint8

// Frame kinds.
const (
	KindPriceRequest       Kind = 0x01
	KindPriceBatchRequest  Kind = 0x02
	KindMultiBatchRequest  Kind = 0x03
	KindTradeBatchRequest  Kind = 0x04
	KindPriceResponse      Kind = 0x81
	KindBatchResponse      Kind = 0x82
	KindTradeBatchResponse Kind = 0x84
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindPriceRequest:
		return "price_request"
	case KindPriceBatchRequest:
		return "batch_price_request"
	case KindMultiBatchRequest:
		return "multi_batch_price_request"
	case KindTradeBatchRequest:
		return "trade_batch_request"
	case KindPriceResponse:
		return "price_response"
	case KindBatchResponse:
		return "batch_price_response"
	case KindTradeBatchResponse:
		return "trade_batch_response"
	}
	return fmt.Sprintf("kind(0x%02x)", uint8(k))
}

// WireTypes enumerates every api type the binary codec carries, keyed by
// frame kind. It is the codec's registration surface: the wirecontract
// analyzer requires a golden binary fixture under
// api/testdata/<APIVersion>/bin/ for each entry (mirroring the JSON
// fixture rule), and the fixture tests iterate it so a kind cannot be
// added without pinning its encoding.
var WireTypes = map[Kind]any{
	KindPriceRequest:       api.PriceRequest{},
	KindPriceBatchRequest:  api.BatchPriceRequest{},
	KindMultiBatchRequest:  api.MultiBatchPriceRequest{},
	KindTradeBatchRequest:  api.TradeBatchRequest{},
	KindPriceResponse:      api.PriceResponse{},
	KindBatchResponse:      api.BatchPriceResponse{},
	KindTradeBatchResponse: api.TradeBatchResponse{},
}

// MaxDim caps the counts a decoder accepts per round and per trade:
// features per round, and weights and support indices per trade. It
// equals the server's owner cap, so a full-population dense trade fits.
// It is a frame-sanity bound, not the serving contract: the server
// enforces its own dimension and owner checks after decoding.
const MaxDim = 1 << 16

// ErrFrame is wrapped by every decode failure: truncated or oversized
// payloads, bad magic, unknown versions or kinds, out-of-range counts,
// and non-finite floats. HTTP servers map it to the invalid_request
// error envelope, exactly like a JSON syntax error.
var ErrFrame = errors.New("binary: malformed frame")

// frameErrorf builds an ErrFrame-wrapped decode error.
func frameErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFrame, fmt.Sprintf(format, args...))
}

// Decision enum values. The wire carries decisions as one byte; decoding
// maps them back onto interned strings so a batch decode allocates
// nothing per round.
const (
	decisionNone         uint8 = 0 // zero PriceResponse (e.g. an errored batch slot)
	decisionSkip         uint8 = 1
	decisionExploratory  uint8 = 2
	decisionConservative uint8 = 3
)

// Interned decision strings (the values pricing.Decision.String()
// produces; the codec does not import pricing to stay a leaf under api).
const (
	decisionSkipStr         = "skip"
	decisionExploratoryStr  = "exploratory"
	decisionConservativeStr = "conservative"
)

// encodeDecision maps a wire decision string onto its enum byte.
func encodeDecision(s string) (uint8, error) {
	switch s {
	case "":
		return decisionNone, nil
	case decisionSkipStr:
		return decisionSkip, nil
	case decisionExploratoryStr:
		return decisionExploratory, nil
	case decisionConservativeStr:
		return decisionConservative, nil
	}
	return 0, fmt.Errorf("binary: unknown decision %q", s)
}

// decodeDecision maps an enum byte back onto its interned string.
func decodeDecision(b uint8) (string, error) {
	switch b {
	case decisionNone:
		return "", nil
	case decisionSkip:
		return decisionSkipStr, nil
	case decisionExploratory:
		return decisionExploratoryStr, nil
	case decisionConservative:
		return decisionConservativeStr, nil
	}
	return "", frameErrorf("unknown decision byte 0x%02x", b)
}
