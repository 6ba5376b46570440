package server

// Hosted markets: the full market loop of the paper — owners with
// differential-privacy compensation contracts, reserve prices derived
// from those contracts, settlement, and a ledger — behind the same HTTP
// edge as the raw pricing streams. A hosted market wraps a
// market.Broker whose mechanism is a family-built pricing.SyncPoster,
// so trades are concurrency-safe and batch trades amortize the pricing
// lock exactly like the stream batch endpoints.

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"datamarket/internal/market"
	"datamarket/internal/pricing"
	"datamarket/internal/privacy"
)

// Market registry errors.
var (
	ErrMarketNotFound = errors.New("server: market not found")
	ErrMarketExists   = errors.New("server: market already exists")
)

// MaxOwners caps a hosted market's owner population. Each owner costs a
// few machine words of broker state. A sparse trade carries only its
// support, but a dense one carries one weight per owner, so the cap
// keeps a full-population dense trade at ~1.5 MB of JSON — well inside
// maxBodyBytes.
const MaxOwners = 65536

// DefaultMarketFeatureDim is the aggregation dimension used when a
// create request leaves FeatureDim zero: min(owners, 10), the paper's
// experimental setting (§V-A aggregates MovieLens compensations into
// n = 10 features).
const DefaultMarketFeatureDim = 10

// HostedMarket is one live market: the broker plus the identity the
// HTTP layer reports on.
type HostedMarket struct {
	id         string
	family     pricing.Family
	featureDim int
	owners     int
	broker     *market.Broker
}

// ID returns the market's identifier.
func (m *HostedMarket) ID() string { return m.id }

// Broker exposes the underlying market broker (for embedding brokerd in
// tests and larger binaries).
func (m *HostedMarket) Broker() *market.Broker { return m.broker }

// Info renders the market's wire description.
func (m *HostedMarket) Info() MarketInfo {
	return MarketInfo{
		ID: m.id, Family: string(m.family),
		Owners: m.owners, FeatureDim: m.featureDim,
	}
}

// Stats renders the market's wire stats: broker books plus mechanism
// counters.
func (m *HostedMarket) Stats() MarketStatsResponse {
	s := m.broker.Stats()
	return MarketStatsResponse{
		ID: m.id, Family: string(m.family),
		Owners: m.owners, FeatureDim: m.featureDim,
		Rounds: s.Rounds, Sold: s.Sold,
		Revenue: s.Revenue, Compensation: s.Compensation, Profit: s.Profit,
		Regret: RegretStats{
			Rounds:            s.Rounds,
			CumulativeRegret:  s.CumulativeRegret,
			CumulativeValue:   s.CumulativeValue,
			CumulativeRevenue: s.CumulativeRevenue,
			RegretRatio:       s.RegretRatio,
		},
		Counters: s.Counters, HasCounters: true,
	}
}

// buildContract instantiates one owner's compensation contract.
func buildContract(spec ContractSpec) (privacy.Contract, error) {
	switch spec.Type {
	case "tanh":
		return privacy.NewTanhContract(spec.Rho, spec.Eta)
	case "linear":
		return privacy.NewLinearContract(spec.Rho)
	default:
		return nil, fmt.Errorf("unknown contract type %q (want tanh or linear)", spec.Type)
	}
}

// newHostedMarket validates a create request and stands up the market:
// contracts, family-built mechanism (always under the reserve price
// constraint), concurrency wrapper, broker.
func newHostedMarket(req CreateMarketRequest) (*HostedMarket, error) {
	if req.ID == "" {
		return nil, fmt.Errorf("server: market id required")
	}
	if len(req.Owners) == 0 {
		return nil, fmt.Errorf("server: market needs at least one owner")
	}
	if len(req.Owners) > MaxOwners {
		return nil, fmt.Errorf("server: %d owners exceed limit %d", len(req.Owners), MaxOwners)
	}
	featureDim := req.FeatureDim
	if featureDim == 0 {
		featureDim = min(len(req.Owners), DefaultMarketFeatureDim)
	}
	if featureDim < 1 || featureDim > len(req.Owners) {
		return nil, fmt.Errorf("server: feature dimension %d out of range [1, %d]",
			featureDim, len(req.Owners))
	}
	if featureDim > MaxDim {
		return nil, fmt.Errorf("server: feature dimension %d exceeds limit %d", featureDim, MaxDim)
	}
	owners := make([]market.Owner, len(req.Owners))
	for i, o := range req.Owners {
		if !isFinite(o.Value) || !isFinite(o.Range) {
			return nil, fmt.Errorf("server: owner %d: value and range must be finite", i)
		}
		if o.Range < 0 {
			return nil, fmt.Errorf("server: owner %d: negative range", i)
		}
		contract, err := buildContract(o.Contract)
		if err != nil {
			return nil, fmt.Errorf("server: owner %d: %w", i, err)
		}
		owners[i] = market.Owner{ID: i, Value: o.Value, Range: o.Range, Contract: contract}
	}
	spec := pricing.FamilySpec{
		Family:    pricing.Family(req.Family),
		Dim:       featureDim,
		Radius:    req.Radius,
		Reserve:   true, // the broker's non-negative-utility constraint
		Delta:     req.Delta,
		Threshold: req.Threshold,
		Horizon:   req.Horizon,
	}
	if req.Model != nil {
		spec.Model = *req.Model
		if n := len(spec.Model.Landmarks); n > MaxDim {
			return nil, fmt.Errorf("server: %d landmarks exceed limit %d", n, MaxDim)
		}
	}
	poster, err := pricing.NewFamilyPoster(spec)
	if err != nil {
		return nil, err
	}
	broker, err := market.NewBroker(market.Config{
		Owners:     owners,
		Mechanism:  pricing.NewSync(poster),
		FeatureDim: featureDim,
		Seed:       req.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &HostedMarket{
		id:         req.ID,
		family:     poster.Family(),
		featureDim: featureDim,
		owners:     len(owners),
		broker:     broker,
	}, nil
}

// MarketRegistry holds the live hosted markets. Markets are few and
// long-lived next to pricing streams (one per owner population, not one
// per consumer segment), so a single RWMutex map suffices where the
// stream registry shards.
type MarketRegistry struct {
	mu      sync.RWMutex
	markets map[string]*HostedMarket
}

// NewMarketRegistry builds an empty market registry.
func NewMarketRegistry() *MarketRegistry {
	return &MarketRegistry{markets: make(map[string]*HostedMarket)}
}

// Create validates and registers a new market. The duplicate-ID check
// runs twice: a cheap read-locked probe before building anything (a
// market build allocates per-owner state, potentially tens of
// thousands of contracts — wasted work on a doomed request), then the
// authoritative check under the write lock.
func (r *MarketRegistry) Create(req CreateMarketRequest) (*HostedMarket, error) {
	r.mu.RLock()
	_, dup := r.markets[req.ID]
	r.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("%w: %q", ErrMarketExists, req.ID)
	}
	m, err := newHostedMarket(req)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.markets[req.ID]; ok {
		return nil, fmt.Errorf("%w: %q", ErrMarketExists, req.ID)
	}
	r.markets[req.ID] = m
	return m, nil
}

// Get returns the market with the given ID.
func (r *MarketRegistry) Get(id string) (*HostedMarket, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.markets[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrMarketNotFound, id)
	}
	return m, nil
}

// Delete removes a market. In-flight trades on the removed broker
// complete normally; the market just stops being addressable.
func (r *MarketRegistry) Delete(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.markets[id]; !ok {
		return fmt.Errorf("%w: %q", ErrMarketNotFound, id)
	}
	delete(r.markets, id)
	return nil
}

// List returns market infos sorted by ID.
func (r *MarketRegistry) List() []MarketInfo {
	r.mu.RLock()
	out := make([]MarketInfo, 0, len(r.markets))
	for _, m := range r.markets {
		out = append(out, m.Info())
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len counts the hosted markets.
func (r *MarketRegistry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.markets)
}
