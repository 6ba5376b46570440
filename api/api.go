// Package api is the public wire contract of brokerd, the posted-price
// data-market broker. Every request and response body the server speaks
// is defined here — stream lifecycle and pricing, hosted markets, admin,
// and the uniform error envelope — so external programs can integrate
// against a typed, versioned surface instead of hand-rolled JSON.
//
// The contract is versioned: every route lives under PathPrefix
// ("/v1"), and GET /v1/version reports the server's APIVersion so
// clients can verify compatibility up front (the official Go client in
// package client does this automatically on first use). The JSON
// encoding of every type in this package is pinned by golden files
// under testdata/<APIVersion>/ — changing an encoding without bumping
// APIVersion fails the wire-compatibility tests and CI.
//
// Errors are machine-readable: every non-2xx response carries an
// ErrorResponse envelope {"error":{"code","message"}} whose Code is one
// of the stable ErrorCode constants, mapped from the server's domain
// errors (see errors.go).
package api

import (
	"datamarket/internal/pricing"
	"datamarket/internal/store"
)

// API version constants.
const (
	// APIVersion is the wire contract version; it appears in every route
	// path (PathPrefix) and in VersionResponse.API. It bumps only on
	// incompatible changes to the types in this package.
	APIVersion = "v1"
	// PathPrefix prefixes every versioned route.
	PathPrefix = "/" + APIVersion
)

// MaxBatchRounds is the most rounds (or trades) one batch request may
// carry; larger batches are rejected whole with 400. Part of the wire
// contract so clients (the SDK's Flusher in particular) can size their
// batches without tripping the limit.
const MaxBatchRounds = 4096

// Re-exported model-configuration and bookkeeping types. These cross the
// wire inside requests and responses; they are the same types the
// datamarket facade exports, so values move between the library and the
// API without conversion.
type (
	// ModelConfig is the serializable model description of a pricing
	// family (link/map/kernel/landmarks for "nonlinear", eta0/margin for
	// "sgd").
	ModelConfig = pricing.ModelConfig
	// KernelConfig is the serializable description of a landmark kernel.
	KernelConfig = pricing.KernelConfig
	// Counters aggregates per-round mechanism bookkeeping.
	Counters = pricing.Counters
	// Envelope is the family-tagged snapshot wire format served by
	// GET /v1/streams/{id}/snapshot and accepted by POST …/restore.
	Envelope = pricing.Envelope
	// StoreStats is the persistence backend's self-reported state inside
	// StoreStatusResponse.
	StoreStats = store.Stats
)

// CreateStreamRequest configures a new pricing stream: a family plus a
// model config, not a concrete mechanism. One stream hosts one poster —
// typically one per consumer segment or query family.
// (POST /v1/streams)
type CreateStreamRequest struct {
	// ID names the stream. Required, and unique across the registry.
	ID string `json:"id"`
	// Family selects the pricing family: "linear" (default), "nonlinear",
	// or "sgd".
	Family string `json:"family,omitempty"`
	// Dim is the input feature dimension n. Required, ≥ 1.
	Dim int `json:"dim"`
	// Radius bounds ‖θ*‖ for the initial knowledge ball (ellipsoid
	// families). Defaults to 2√(mapped dim), the normalization used
	// throughout the paper's experiments.
	Radius float64 `json:"radius,omitempty"`
	// Reserve enables the reserve price constraint (all families).
	Reserve bool `json:"reserve,omitempty"`
	// Delta is the uncertainty buffer δ ≥ 0 (Algorithm 2).
	Delta float64 `json:"delta,omitempty"`
	// Threshold overrides the exploration threshold ε. When 0 and
	// Horizon > 0, the regret-optimal DefaultThreshold schedule is used;
	// when both are 0, the mechanism's horizon-free fallback applies.
	Threshold float64 `json:"threshold,omitempty"`
	// Horizon is the expected number of rounds T for the default ε.
	Horizon int `json:"horizon,omitempty"`
	// Model carries the family-specific model config: link/map/kernel/
	// landmarks for "nonlinear", eta0/margin for "sgd".
	Model *ModelConfig `json:"model,omitempty"`
}

// StreamInfo describes a hosted stream.
type StreamInfo struct {
	ID     string `json:"id"`
	Family string `json:"family"`
	Dim    int    `json:"dim"`
}

// ListStreamsResponse enumerates the hosted streams.
// (GET /v1/streams)
type ListStreamsResponse struct {
	Streams []StreamInfo `json:"streams"`
}

// PriceRequest drives pricing for one query. With Valuation set, the
// server runs one full round atomically: it posts the price, accepts iff
// price ≤ valuation (the buyer-valuation callback), and feeds the result
// back to the mechanism. Without Valuation, use the two-phase
// /quote + /observe pair instead. (POST /v1/streams/{id}/price)
type PriceRequest struct {
	Features  []float64 `json:"features"`
	Reserve   float64   `json:"reserve,omitempty"`
	Valuation *float64  `json:"valuation,omitempty"`
}

// QuoteRequest opens a round without resolving it: the caller must report
// the buyer's decision via /observe before the next quote on the stream.
// (POST /v1/streams/{id}/quote)
type QuoteRequest struct {
	Features []float64 `json:"features"`
	Reserve  float64   `json:"reserve,omitempty"`
}

// ObserveRequest closes the round opened by the last quote.
// (POST /v1/streams/{id}/observe)
type ObserveRequest struct {
	Accepted bool `json:"accepted"`
}

// ObserveResponse acknowledges the feedback that closed the round.
type ObserveResponse struct {
	Observed bool `json:"observed"`
}

// PriceResponse reports the broker's quote for one round. Accepted is
// set only when the request carried a valuation and the round was not
// skipped.
type PriceResponse struct {
	Price          float64 `json:"price"`
	Decision       string  `json:"decision"`
	Lower          float64 `json:"lower"`
	Upper          float64 `json:"upper"`
	ReserveBinding bool    `json:"reserve_binding,omitempty"`
	Accepted       *bool   `json:"accepted,omitempty"`
}

// BatchPriceRound is one round inside a batched pricing request. The
// fields mirror PriceRequest; Valuation is required — batching exists
// for the high-throughput valuation-callback path, two-phase rounds
// cannot batch (each one blocks on external feedback).
type BatchPriceRound struct {
	Features  []float64 `json:"features"`
	Reserve   float64   `json:"reserve,omitempty"`
	Valuation *float64  `json:"valuation,omitempty"`
}

// BatchPriceRequest prices k rounds on one stream with a single JSON
// decode and a single stream-lock acquisition (POST
// /v1/streams/{id}/price/batch). Rounds run back to back in order.
type BatchPriceRequest struct {
	Rounds []BatchPriceRound `json:"rounds"`
}

// MultiBatchRound is one round inside a multi-stream batched pricing
// request: a BatchPriceRound plus the target stream.
type MultiBatchRound struct {
	StreamID  string    `json:"stream_id"`
	Features  []float64 `json:"features"`
	Reserve   float64   `json:"reserve,omitempty"`
	Valuation *float64  `json:"valuation,omitempty"`
}

// MultiBatchPriceRequest prices rounds across many streams in one
// request (POST /v1/price/batch). Rounds are grouped by stream — order
// is preserved within a stream, not across streams — and fanned out
// over a bounded worker pool, one shard's streams per worker at a time.
type MultiBatchPriceRequest struct {
	Rounds []MultiBatchRound `json:"rounds"`
}

// BatchRoundResult reports one round of a batch: the quote fields on
// success, or Error. Results align index-for-index with request rounds.
type BatchRoundResult struct {
	PriceResponse
	Error string `json:"error,omitempty"`
}

// BatchPriceResponse carries the per-round results of either batch
// endpoint.
type BatchPriceResponse struct {
	Results []BatchRoundResult `json:"results"`
}

// RegretStats summarizes regret bookkeeping: for a stream, the rounds
// priced through the one-shot /price endpoint (where the buyer's
// valuation is known to the server); for a market, every trade.
type RegretStats struct {
	Rounds            int     `json:"rounds"`
	CumulativeRegret  float64 `json:"cumulative_regret"`
	CumulativeValue   float64 `json:"cumulative_value"`
	CumulativeRevenue float64 `json:"cumulative_revenue"`
	RegretRatio       float64 `json:"regret_ratio"`
}

// StatsResponse surfaces a stream's mechanism counters and regret
// bookkeeping. HasCounters is always true: every hosted family keeps
// counters. It stays on the wire until the next API version.
// (GET /v1/streams/{id}/stats)
type StatsResponse struct {
	ID          string      `json:"id"`
	Family      string      `json:"family"`
	Dim         int         `json:"dim"`
	Counters    Counters    `json:"counters"`
	HasCounters bool        `json:"has_counters"`
	Regret      RegretStats `json:"regret"`
}

// HealthResponse is the liveness probe body. (GET /healthz)
type HealthResponse struct {
	Status  string `json:"status"`
	Streams int    `json:"streams"`
	Markets int    `json:"markets"`
}
