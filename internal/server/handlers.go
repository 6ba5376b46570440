package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"datamarket/api"
	"datamarket/internal/linalg"
	"datamarket/internal/pricing"
	"datamarket/internal/store"
)

// maxBodyBytes bounds request bodies. Snapshots of high-dimensional
// streams dominate: at the MaxDim cap of 1024 a snapshot is ~21 MB of
// JSON, so every snapshot the server can emit is restorable within the
// limit. Oversized bodies get 413, not silent truncation.
const maxBodyBytes = 32 << 20

// Version is the brokerd release version reported by GET /v1/version.
const Version = "0.5.0"

// Server is the brokerd HTTP edge over a stream registry and a hosted
// market registry.
type Server struct {
	reg       *Registry
	markets   *MarketRegistry
	persister *Persister
	metrics   *requestMetrics
}

// NewServer wraps a registry (nil builds a fresh default registry) and
// an empty market registry.
func NewServer(reg *Registry) *Server {
	if reg == nil {
		reg = NewRegistry(0)
	}
	return &Server{reg: reg, markets: NewMarketRegistry(), metrics: newRequestMetrics()}
}

// Registry exposes the underlying registry (for embedding brokerd in
// tests and larger binaries).
func (s *Server) Registry() *Registry { return s.reg }

// SetPersister attaches the persistence subsystem so the admin endpoints
// can drive it. Without one, POST /v1/admin/checkpoint answers 503 and
// GET /v1/admin/store reports configured: false.
func (s *Server) SetPersister(p *Persister) { s.persister = p }

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("POST /v1/streams", s.handleCreate)
	mux.HandleFunc("GET /v1/streams", s.handleList)
	mux.HandleFunc("GET /v1/streams/{id}", s.handleInfo)
	mux.HandleFunc("DELETE /v1/streams/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/streams/{id}/price", s.handlePrice)
	mux.HandleFunc("POST /v1/streams/{id}/price/batch", s.handleBatchPrice)
	mux.HandleFunc("POST /v1/price/batch", s.handleMultiBatchPrice)
	mux.HandleFunc("POST /v1/streams/{id}/quote", s.handleQuote)
	mux.HandleFunc("POST /v1/streams/{id}/observe", s.handleObserve)
	mux.HandleFunc("GET /v1/streams/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /v1/streams/{id}/restore", s.handleRestore)
	mux.HandleFunc("GET /v1/streams/{id}/stats", s.handleStats)
	mux.HandleFunc("POST /v1/markets", s.handleCreateMarket)
	mux.HandleFunc("GET /v1/markets", s.handleListMarkets)
	mux.HandleFunc("GET /v1/markets/{id}", s.handleMarketInfo)
	mux.HandleFunc("DELETE /v1/markets/{id}", s.handleDeleteMarket)
	mux.HandleFunc("POST /v1/markets/{id}/trade", s.handleTrade)
	mux.HandleFunc("POST /v1/markets/{id}/trade/batch", s.handleTradeBatch)
	mux.HandleFunc("GET /v1/markets/{id}/ledger", s.handleLedger)
	mux.HandleFunc("GET /v1/markets/{id}/payouts", s.handlePayouts)
	mux.HandleFunc("GET /v1/markets/{id}/stats", s.handleMarketStats)
	mux.HandleFunc("POST /v1/admin/checkpoint", s.handleAdminCheckpoint)
	mux.HandleFunc("GET /v1/admin/store", s.handleAdminStore)
	mux.HandleFunc("GET /v1/admin/metrics", s.handleMetrics)
	return withAPIHeaders(withMetrics(s.metrics, mux))
}

// handleVersion reports the wire contract version and build info so
// clients can verify compatibility before relying on the API.
func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	resp := VersionResponse{
		API:       api.APIVersion,
		Server:    Version,
		GoVersion: runtime.Version(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				resp.Revision = kv.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAdminCheckpoint runs a synchronous checkpoint pass; ?compact=true
// additionally folds the journal tail into a fresh checkpoint file.
func (s *Server) handleAdminCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.persister == nil {
		writeStatusError(w, http.StatusServiceUnavailable,
			"persistence not configured (start brokerd with -data-dir)")
		return
	}
	resp := CheckpointResponse{CheckpointStats: s.persister.Checkpoint()}
	if r.URL.Query().Get("compact") == "true" {
		if err := s.persister.Compact(); err != nil {
			writeStatusError(w, http.StatusInternalServerError, "compacting store: "+err.Error())
			return
		}
		resp.Compacted = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAdminStore reports the persistence subsystem's observable state.
func (s *Server) handleAdminStore(w http.ResponseWriter, _ *http.Request) {
	if s.persister == nil {
		writeJSON(w, http.StatusOK, StoreStatusResponse{Configured: false})
		return
	}
	writeJSON(w, http.StatusOK, s.persister.Status())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status: "ok", Streams: s.reg.Len(), Markets: s.markets.Len(),
	})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateStreamRequest
	if !readJSON(w, r, &req) {
		return
	}
	st, err := s.reg.Create(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, streamInfo(st))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	streams := s.reg.List()
	if streams == nil {
		streams = []StreamInfo{}
	}
	writeJSON(w, http.StatusOK, ListStreamsResponse{Streams: streams})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	st, ok := s.stream(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, streamInfo(st))
}

// streamInfo renders a stream's wire description.
func streamInfo(st *Stream) StreamInfo {
	return StreamInfo{ID: st.ID(), Family: string(st.Family()), Dim: st.Dim()}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	// ?force=true discards a pending two-phase round along with the
	// stream; without it a pending stream answers 409.
	force := r.URL.Query().Get("force") == "true"
	if err := s.reg.Delete(r.PathValue("id"), force); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handlePrice(w http.ResponseWriter, r *http.Request) {
	st, ok := s.stream(w, r)
	if !ok {
		return
	}
	ws := getWire()
	defer putWire(ws)
	var req PriceRequest
	if !s.readHot(ws, w, r, &req) {
		return
	}
	if req.Valuation == nil {
		writeStatusError(w, http.StatusBadRequest,
			"valuation required on /price; use /quote + /observe for two-phase rounds")
		return
	}
	features, ok2 := checkFeatures(w, st, req.Features, req.Reserve)
	if !ok2 {
		return
	}
	if !isFinite(*req.Valuation) {
		writeStatusError(w, http.StatusBadRequest, "valuation must be finite")
		return
	}
	q, accepted, err := st.Price(features, req.Reserve, *req.Valuation)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := quoteResponse(q)
	if q.Decision != pricing.DecisionSkip {
		resp.Accepted = &accepted
	}
	ws.writeHot(w, r, http.StatusOK, &resp)
}

func (s *Server) handleQuote(w http.ResponseWriter, r *http.Request) {
	st, ok := s.stream(w, r)
	if !ok {
		return
	}
	var req QuoteRequest
	if !readJSON(w, r, &req) {
		return
	}
	features, ok2 := checkFeatures(w, st, req.Features, req.Reserve)
	if !ok2 {
		return
	}
	q, err := st.Quote(features, req.Reserve)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, quoteResponse(q))
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	st, ok := s.stream(w, r)
	if !ok {
		return
	}
	var req ObserveRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := st.Observe(req.Accepted); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ObserveResponse{Observed: true})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	st, ok := s.stream(w, r)
	if !ok {
		return
	}
	snap, err := st.Snapshot()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeStatusError(w, status, "reading body: "+err.Error())
		return
	}
	env, err := pricing.DecodeEnvelope(body)
	if err != nil {
		writeStatusError(w, http.StatusBadRequest, err.Error())
		return
	}
	st, created, err := s.reg.GetOrRestore(id, env)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, streamInfo(st))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, ok := s.stream(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, st.Stats())
}

// stream resolves the {id} path value, writing the error on failure.
func (s *Server) stream(w http.ResponseWriter, r *http.Request) (*Stream, bool) {
	st, err := s.reg.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return nil, false
	}
	return st, true
}

// validateFeatures checks dimension and finiteness of one round's
// inputs; it is the shared core of checkFeatures and the per-item batch
// validation, so batch items fail with the same messages as single
// rounds.
func validateFeatures(st *Stream, raw []float64, reserve float64) error {
	if len(raw) != st.Dim() {
		return fmt.Errorf("feature dimension %d, stream wants %d", len(raw), st.Dim())
	}
	for i, v := range raw {
		if !isFinite(v) {
			return fmt.Errorf("feature %d is %g, want finite", i, v)
		}
	}
	if !isFinite(reserve) {
		return fmt.Errorf("reserve must be finite")
	}
	return nil
}

// checkFeatures validates dimension and finiteness, returning the vector.
func checkFeatures(w http.ResponseWriter, st *Stream, raw []float64, reserve float64) (linalg.Vector, bool) {
	if err := validateFeatures(st, raw, reserve); err != nil {
		writeStatusError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	return linalg.Vector(raw), true
}

func quoteResponse(q pricing.Quote) PriceResponse {
	return PriceResponse{
		Price:          q.Price,
		Decision:       q.Decision.String(),
		Lower:          q.Lower,
		Upper:          q.Upper,
		ReserveBinding: q.ReserveBinding,
	}
}

// readJSON decodes the request body, writing a 400 (or 413) on failure.
func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeStatusError(w, status, "decoding request: "+err.Error())
		return false
	}
	return true
}

// encodeLogf is where response-encode failures are reported. It defaults
// to log.Printf and is replaced by WithRequestLog so encode failures land
// in the same stream as the request log. Stored atomically because test
// servers install loggers while earlier handlers may still be in flight.
var encodeLogf atomic.Value

func init() { encodeLogf.Store(log.Printf) }

// logEncodeError reports a failed response encode — a truncated or
// unencodable response the client will see as a broken body — so the
// condition is observable instead of silent.
func logEncodeError(v any, err error) {
	encodeLogf.Load().(func(string, ...any))("encoding %T response: %v", v, err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logEncodeError(v, err)
	}
}

// errorStatus maps a domain error onto its HTTP status and stable wire
// code. Every sentinel the handlers can surface has an explicit row so
// the code a client branches on never depends on message text.
func errorStatus(err error) (int, api.ErrorCode) {
	switch {
	case errors.Is(err, ErrPersist):
		// The request was valid; the journal append failed. 5xx so
		// clients know to retry rather than treat it as malformed.
		return http.StatusInternalServerError, api.CodePersistence
	case errors.Is(err, ErrStreamNotFound):
		return http.StatusNotFound, api.CodeStreamNotFound
	case errors.Is(err, ErrMarketNotFound):
		return http.StatusNotFound, api.CodeMarketNotFound
	case errors.Is(err, ErrStreamExists):
		return http.StatusConflict, api.CodeStreamExists
	case errors.Is(err, ErrMarketExists):
		return http.StatusConflict, api.CodeMarketExists
	case errors.Is(err, ErrStreamPending):
		return http.StatusConflict, api.CodeStreamPending
	case errors.Is(err, store.ErrClosed):
		// The journal has been shut down (draining stop or a failed
		// recovery); the stream state is fine but writes can't be
		// made durable. 503 tells clients the condition is
		// retryable once the server is back.
		return http.StatusServiceUnavailable, api.CodeUnavailable
	case errors.Is(err, pricing.ErrFamilyMismatch):
		return http.StatusConflict, api.CodeFamilyMismatch
	case errors.Is(err, pricing.ErrPendingRound):
		return http.StatusConflict, api.CodeRoundPending
	case errors.Is(err, pricing.ErrNoPendingRound):
		return http.StatusConflict, api.CodeNoRoundPending
	default:
		return http.StatusBadRequest, api.CodeInvalidRequest
	}
}

// writeError maps domain errors onto HTTP statuses and wire codes.
func writeError(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	writeAPIError(w, status, code, err.Error())
}

// writeStatusError writes a validation-style error at the given status
// with the status's default code; paths with a more specific domain
// error go through writeError instead.
func writeStatusError(w http.ResponseWriter, status int, msg string) {
	var code api.ErrorCode
	switch status {
	case http.StatusRequestEntityTooLarge:
		code = api.CodeBodyTooLarge
	case http.StatusServiceUnavailable:
		code = api.CodeUnavailable
	case http.StatusInternalServerError:
		code = api.CodeInternal
	default:
		code = api.CodeInvalidRequest
	}
	writeAPIError(w, status, code, msg)
}

// writeAPIError emits the machine-readable error envelope
// {"error":{"code","message"}} — the uniform body of every non-2xx
// response.
func writeAPIError(w http.ResponseWriter, status int, code api.ErrorCode, msg string) {
	writeJSON(w, status, api.ErrorResponse{Error: api.ErrorDetail{Code: code, Message: msg}})
}
