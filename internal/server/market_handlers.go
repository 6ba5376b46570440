package server

import (
	"fmt"
	"net/http"
	"strconv"

	"datamarket/internal/market"
	"datamarket/internal/privacy"
)

// tradeResult renders one settled transaction in wire form.
func tradeResult(tx market.Transaction) TradeResult {
	return TradeResult{
		Round:        tx.Round,
		Reserve:      tx.Reserve,
		Posted:       tx.Posted,
		Decision:     tx.Decision.String(),
		Sold:         tx.Sold,
		Revenue:      tx.Revenue,
		Compensation: tx.Compensation,
		Profit:       tx.Profit,
		Answer:       tx.Answer,
		Regret:       tx.Regret,
	}
}

// marketQuery validates one trade request against the market and builds
// the underlying noisy linear query. The sparse form costs O(support);
// the dense form is converted to it in one scan of its weights.
func marketQuery(m *HostedMarket, req TradeRequest) (market.Query, error) {
	owners := req.Owners
	if owners == 0 {
		if len(req.Support) > 0 {
			return market.Query{}, fmt.Errorf("query lists %d support indices without an owner count", len(req.Support))
		}
		owners = len(req.Weights)
	}
	if owners != m.owners {
		return market.Query{}, fmt.Errorf("query is over %d owners, market has %d owners", owners, m.owners)
	}
	if !isFinite(req.Valuation) {
		return market.Query{}, fmt.Errorf("valuation must be finite")
	}
	var (
		q   *privacy.LinearQuery
		err error
	)
	if req.Owners == 0 {
		q, err = privacy.NewLinearQuery(req.Weights, req.NoiseVariance)
	} else {
		q, err = privacy.NewSparseLinearQuery(req.Owners, req.Support, req.Weights, req.NoiseVariance)
	}
	if err != nil {
		return market.Query{}, err
	}
	return market.Query{Q: q, Valuation: req.Valuation}, nil
}

func (s *Server) handleCreateMarket(w http.ResponseWriter, r *http.Request) {
	var req CreateMarketRequest
	if !readJSON(w, r, &req) {
		return
	}
	m, err := s.markets.Create(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, m.Info())
}

func (s *Server) handleListMarkets(w http.ResponseWriter, _ *http.Request) {
	markets := s.markets.List()
	if markets == nil {
		markets = []MarketInfo{}
	}
	writeJSON(w, http.StatusOK, ListMarketsResponse{Markets: markets})
}

func (s *Server) handleMarketInfo(w http.ResponseWriter, r *http.Request) {
	m, ok := s.market(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, m.Info())
}

func (s *Server) handleDeleteMarket(w http.ResponseWriter, r *http.Request) {
	if err := s.markets.Delete(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleTrade(w http.ResponseWriter, r *http.Request) {
	m, ok := s.market(w, r)
	if !ok {
		return
	}
	var req TradeRequest
	if !readJSON(w, r, &req) {
		return
	}
	q, err := marketQuery(m, req)
	if err != nil {
		writeError(w, err)
		return
	}
	tx, err := m.broker.Trade(q)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, TradeResponse{TradeResult: tradeResult(tx)})
}

// handleTradeBatch settles k trades in one request. Invalid trades fail
// individually; the valid ones run the full prepare→price→settle
// pipeline, sharing one pricing-lock acquisition when the market's
// family supports batch pricing. Results align index-for-index with
// request trades.
func (s *Server) handleTradeBatch(w http.ResponseWriter, r *http.Request) {
	m, ok := s.market(w, r)
	if !ok {
		return
	}
	ws := getWire()
	defer putWire(ws)
	var req TradeBatchRequest
	if !s.readHot(ws, w, r, &req) {
		return
	}
	if !checkBatchSize(w, len(req.Trades)) {
		return
	}
	results := make([]TradeBatchResult, len(req.Trades))
	queries := make([]market.Query, 0, len(req.Trades))
	idx := make([]int, 0, len(req.Trades)) // request slot of each valid query
	for i, t := range req.Trades {
		q, err := marketQuery(m, t)
		if err != nil {
			results[i] = TradeBatchResult{Error: err.Error()}
			continue
		}
		queries = append(queries, q)
		idx = append(idx, i)
	}
	for k, o := range m.broker.TradeBatchOutcomes(queries) {
		if o.Err != nil {
			results[idx[k]] = TradeBatchResult{Error: o.Err.Error()}
			continue
		}
		results[idx[k]] = TradeBatchResult{TradeResult: tradeResult(o.Tx)}
	}
	ws.writeHot(w, r, http.StatusOK, &TradeBatchResponse{Results: results})
}

// handleLedger pages through the market's transaction ledger
// (?offset=&limit=; limit defaults to MaxBatchRounds and is capped
// there, so one response is bounded the same way one batch is).
func (s *Server) handleLedger(w http.ResponseWriter, r *http.Request) {
	m, ok := s.market(w, r)
	if !ok {
		return
	}
	offset, ok := queryInt(w, r, "offset", 0)
	if !ok {
		return
	}
	limit, ok := queryInt(w, r, "limit", MaxBatchRounds)
	if !ok {
		return
	}
	if limit <= 0 || limit > MaxBatchRounds {
		limit = MaxBatchRounds
	}
	txs, total := m.broker.LedgerSlice(offset, limit)
	entries := make([]TradeResult, len(txs))
	for i, tx := range txs {
		entries[i] = tradeResult(tx)
	}
	writeJSON(w, http.StatusOK, LedgerResponse{Offset: offset, Total: total, Entries: entries})
}

func (s *Server) handlePayouts(w http.ResponseWriter, r *http.Request) {
	m, ok := s.market(w, r)
	if !ok {
		return
	}
	payouts := m.broker.Payouts()
	writeJSON(w, http.StatusOK, PayoutsResponse{Payouts: payouts, Total: payouts.Sum()})
}

func (s *Server) handleMarketStats(w http.ResponseWriter, r *http.Request) {
	m, ok := s.market(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, m.Stats())
}

// market resolves the {id} path value, writing the error on failure.
func (s *Server) market(w http.ResponseWriter, r *http.Request) (*HostedMarket, bool) {
	m, err := s.markets.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return nil, false
	}
	return m, true
}

// queryInt parses an optional non-negative integer query parameter.
func queryInt(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		writeStatusError(w, http.StatusBadRequest,
			fmt.Sprintf("query parameter %q must be a non-negative integer", name))
		return 0, false
	}
	return v, true
}
