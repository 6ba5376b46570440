package api

// Hosted-market wire types. A market is the full §III/§IV scenario of
// the paper behind HTTP: data owners with differential-privacy
// compensation contracts, a pricing mechanism under the reserve price
// constraint (the total compensation owed for a query), settlement, and
// a ledger. Consumers submit noisy linear queries; the server derives
// each query's reserve from the owners' contracts, prices it, settles,
// and records the transaction.

// ContractSpec selects and parameterizes a privacy compensation
// contract π(ε).
type ContractSpec struct {
	// Type is "tanh" (bounded, π = ρ·tanh(η·ε) — the paper's choice) or
	// "linear" (π = ρ·ε).
	Type string `json:"type"`
	// Rho is the saturation payment (tanh) or per-unit payment (linear);
	// required, > 0.
	Rho float64 `json:"rho"`
	// Eta is the tanh sensitivity; required for "tanh", ignored for
	// "linear".
	Eta float64 `json:"eta,omitempty"`
}

// OwnerSpec is one data owner in a market create request.
type OwnerSpec struct {
	// Value is the private data value the broker holds for the owner.
	Value float64 `json:"value"`
	// Range bounds how much Value could differ between neighboring
	// databases (the per-owner sensitivity Δᵢ ≥ 0).
	Range float64 `json:"range"`
	// Contract converts privacy leakage into compensation.
	Contract ContractSpec `json:"contract"`
}

// CreateMarketRequest stands up a hosted market. (POST /v1/markets)
//
// The pricing fields mirror CreateStreamRequest, with the mechanism's
// input dimension fixed to FeatureDim and the reserve price constraint
// always on — a market without it could sell below the compensation it
// owes its owners, violating the broker's non-negative-utility
// constraint (§II-A).
type CreateMarketRequest struct {
	// ID names the market. Required, unique among markets.
	ID string `json:"id"`
	// Owners is the data owner population. Required, non-empty.
	Owners []OwnerSpec `json:"owners"`
	// FeatureDim is the dimension n of the aggregated compensation
	// feature vector (1 ≤ FeatureDim ≤ len(Owners)); 0 defaults to
	// min(len(Owners), 10), the paper's experimental setting.
	FeatureDim int `json:"feature_dim,omitempty"`
	// Seed drives the Laplace noise in the returned answers.
	Seed uint64 `json:"seed,omitempty"`
	// Family selects the pricing family: "linear" (default),
	// "nonlinear", or "sgd".
	Family string `json:"family,omitempty"`
	// Radius, Delta, Threshold, Horizon configure the mechanism exactly
	// as in CreateStreamRequest.
	Radius    float64 `json:"radius,omitempty"`
	Delta     float64 `json:"delta,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Horizon   int     `json:"horizon,omitempty"`
	// Model carries the family-specific model config.
	Model *ModelConfig `json:"model,omitempty"`
}

// MarketInfo describes a hosted market.
type MarketInfo struct {
	ID         string `json:"id"`
	Family     string `json:"family"`
	Owners     int    `json:"owners"`
	FeatureDim int    `json:"feature_dim"`
}

// ListMarketsResponse enumerates the hosted markets. (GET /v1/markets)
type ListMarketsResponse struct {
	Markets []MarketInfo `json:"markets"`
}

// TradeRequest is one consumer query against a market: a noisy linear
// query (weights over the owners, requested noise variance) plus the
// consumer's private valuation, which the server uses only as the
// accept/reject callback. (POST /v1/markets/{id}/trade)
//
// The weights come in one of two forms. The dense form leaves Owners
// zero and sends one weight per data owner. The sparse form sets Owners
// to the market's owner count and sends only the support: Support lists
// ascending owner indices and Weights the weights aligned with them;
// every other owner weighs zero. A query typically weights a few dozen
// owners out of thousands, so the sparse form is far smaller, and the
// server handles it in time proportional to the support.
type TradeRequest struct {
	// Owners selects the sparse form when nonzero and must then equal
	// the market's owner count.
	Owners int `json:"owners,omitempty"`
	// Support lists the owners the sparse form weights: strictly
	// increasing indices in [0, Owners). Empty in the dense form.
	Support []int `json:"support,omitempty"`
	// Weights has one entry per data owner in the dense form, and one
	// per Support entry in the sparse form.
	Weights []float64 `json:"weights"`
	// NoiseVariance is the variance of the Laplace noise added to the
	// answer; larger variance means cheaper, more private answers.
	NoiseVariance float64 `json:"noise_variance"`
	// Valuation is the consumer's market value for the answer; the trade
	// settles iff the posted price is at most this.
	Valuation float64 `json:"valuation"`
}

// TradeResult is the wire form of one ledger transaction.
type TradeResult struct {
	// Round is the market-wide 1-based trade sequence number.
	Round int `json:"round"`
	// Reserve is the query's reserve price — the total privacy
	// compensation the broker owes if the answer sells.
	Reserve float64 `json:"reserve"`
	// Posted is the price offered (the reserve itself on skip rounds).
	Posted float64 `json:"posted"`
	// Decision classifies the round: "skip", "exploratory", or
	// "conservative".
	Decision string `json:"decision"`
	// Sold reports whether the consumer accepted.
	Sold bool `json:"sold"`
	// Revenue, Compensation, Profit settle the round when sold
	// (Profit = Revenue − Compensation ≥ 0 by the reserve constraint).
	Revenue      float64 `json:"revenue,omitempty"`
	Compensation float64 `json:"compensation,omitempty"`
	Profit       float64 `json:"profit,omitempty"`
	// Answer is the noisy query answer, returned only when sold.
	Answer float64 `json:"answer,omitempty"`
	// Regret is the round's regret per Eq. (1).
	Regret float64 `json:"regret"`
}

// TradeResponse reports one settled trade.
type TradeResponse struct {
	TradeResult
}

// TradeBatchRequest settles k trades in one request
// (POST /v1/markets/{id}/trade/batch). Each query runs the full
// prepare→price→settle pipeline; the pricing rounds share one mechanism
// lock acquisition when the market's family supports batch pricing.
type TradeBatchRequest struct {
	Trades []TradeRequest `json:"trades"`
}

// TradeBatchResult is one trade of a batch: the transaction on success,
// or Error. Results align index-for-index with request trades.
type TradeBatchResult struct {
	TradeResult
	Error string `json:"error,omitempty"`
}

// TradeBatchResponse carries the per-trade results of a batch.
type TradeBatchResponse struct {
	Results []TradeBatchResult `json:"results"`
}

// LedgerResponse pages through a market's transaction ledger
// (GET /v1/markets/{id}/ledger?offset=&limit=). Entries are in trade
// order; Total is the full ledger length so clients can page.
type LedgerResponse struct {
	Offset  int           `json:"offset"`
	Total   int           `json:"total"`
	Entries []TradeResult `json:"entries"`
}

// PayoutsResponse reports cumulative privacy compensation per owner
// (GET /v1/markets/{id}/payouts). Payouts[i] is owner i's total; Total
// is their sum.
type PayoutsResponse struct {
	Payouts []float64 `json:"payouts"`
	Total   float64   `json:"total"`
}

// MarketStatsResponse aggregates a market's books and its mechanism's
// bookkeeping. (GET /v1/markets/{id}/stats)
type MarketStatsResponse struct {
	ID         string `json:"id"`
	Family     string `json:"family"`
	Owners     int    `json:"owners"`
	FeatureDim int    `json:"feature_dim"`
	// Rounds counts every trade; Sold the settled ones.
	Rounds int `json:"rounds"`
	Sold   int `json:"sold"`
	// Revenue, Compensation, Profit are the market totals.
	Revenue      float64 `json:"revenue"`
	Compensation float64 `json:"compensation"`
	Profit       float64 `json:"profit"`
	// Regret is the broker's regret bookkeeping over all trades.
	Regret RegretStats `json:"regret"`
	// Counters is the pricing mechanism's own bookkeeping. HasCounters
	// is always true (every hosted family keeps counters); it stays on
	// the wire until the next API version.
	Counters    Counters `json:"counters"`
	HasCounters bool     `json:"has_counters"`
}
