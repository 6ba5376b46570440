package client

import (
	"context"
	"fmt"
	"net/http"

	"datamarket/api"
)

// Hosted-market calls: the full owners → compensation → reserve →
// settlement loop of the paper, driven over HTTP.

// CreateMarket stands up a hosted market. (POST /v1/markets)
func (c *Client) CreateMarket(ctx context.Context, req api.CreateMarketRequest) (api.MarketInfo, error) {
	var info api.MarketInfo
	err := c.do(ctx, http.MethodPost, "/v1/markets", req, &info, false)
	return info, err
}

// ListMarkets enumerates the hosted markets. (GET /v1/markets)
func (c *Client) ListMarkets(ctx context.Context) ([]api.MarketInfo, error) {
	var resp api.ListMarketsResponse
	err := c.do(ctx, http.MethodGet, "/v1/markets", nil, &resp, true)
	return resp.Markets, err
}

// Market describes one hosted market. (GET /v1/markets/{id})
func (c *Client) Market(ctx context.Context, id string) (api.MarketInfo, error) {
	var info api.MarketInfo
	err := c.do(ctx, http.MethodGet, "/v1/markets/"+escape(id), nil, &info, true)
	return info, err
}

// DeleteMarket removes a market. (DELETE /v1/markets/{id})
func (c *Client) DeleteMarket(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/markets/"+escape(id), nil, nil, true)
}

// Trade settles one consumer query: the server derives the reserve from
// the owners' compensation contracts, prices the query, settles iff the
// posted price is at most the valuation, and records the ledger entry.
// (POST /v1/markets/{id}/trade)
func (c *Client) Trade(ctx context.Context, id string, trade api.TradeRequest) (api.TradeResult, error) {
	var resp api.TradeResponse
	err := c.do(ctx, http.MethodPost, "/v1/markets/"+escape(id)+"/trade", trade, &resp, false)
	return resp.TradeResult, err
}

// TradeBatch settles k trades in one request; results align
// index-for-index with trades. (POST /v1/markets/{id}/trade/batch)
//
// Over the binary codec (WithBinary) every dense trade goes on the wire
// in the sparse form — its nonzero weights and their owner indices —
// which the server settles exactly as the dense one, at a fraction of
// the bytes. Over JSON the trades go as given: only the binary
// capability header shows that a server accepts the sparse form.
func (c *Client) TradeBatch(ctx context.Context, id string, trades []api.TradeRequest) ([]api.TradeBatchResult, error) {
	if err := c.ensureCompatible(ctx); err != nil {
		return nil, err
	}
	path := "/v1/markets/" + escape(id) + "/trade/batch"
	var resp api.TradeBatchResponse
	if !c.binaryActive() {
		err := c.roundTrip(ctx, http.MethodPost, path, &api.TradeBatchRequest{Trades: trades}, &resp, false)
		return resp.Results, err
	}
	sb := sparsePool.Get().(*sparseBatch)
	err := c.sendBinary(ctx, http.MethodPost, path, &api.TradeBatchRequest{Trades: sb.sparsify(trades)}, &resp, false)
	sparsePool.Put(sb)
	return resp.Results, err
}

// Ledger pages through the market's transaction ledger.
// (GET /v1/markets/{id}/ledger?offset=&limit=)
func (c *Client) Ledger(ctx context.Context, id string, offset, limit int) (api.LedgerResponse, error) {
	path := fmt.Sprintf("/v1/markets/%s/ledger?offset=%d&limit=%d", escape(id), offset, limit)
	var resp api.LedgerResponse
	err := c.do(ctx, http.MethodGet, path, nil, &resp, true)
	return resp, err
}

// Payouts reports cumulative privacy compensation per owner.
// (GET /v1/markets/{id}/payouts)
func (c *Client) Payouts(ctx context.Context, id string) (api.PayoutsResponse, error) {
	var resp api.PayoutsResponse
	err := c.do(ctx, http.MethodGet, "/v1/markets/"+escape(id)+"/payouts", nil, &resp, true)
	return resp, err
}

// MarketStats aggregates the market's books and its mechanism's
// bookkeeping. (GET /v1/markets/{id}/stats)
func (c *Client) MarketStats(ctx context.Context, id string) (api.MarketStatsResponse, error) {
	var resp api.MarketStatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/markets/"+escape(id)+"/stats", nil, &resp, true)
	return resp, err
}
