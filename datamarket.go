// Package datamarket is a from-scratch Go implementation of "Online
// Pricing with Reserve Price Constraint for Personal Data Markets"
// (Niu, Zheng, Wu, Tang, Chen — ICDE 2020): an ellipsoid-based contextual
// dynamic pricing mechanism that lets a data broker post prices for
// sequential customized queries, subject to the reserve price implied by
// the privacy compensations owed to data owners.
//
// The facade re-exports the library's primary surface:
//
//   - the posted-price mechanisms (Algorithms 1/1*/2/2*, the 1-D interval
//     special case, the nonlinear g∘φ extensions, and the baselines);
//   - the data market substrate (owners, broker, consumers, differential
//     privacy compensation accounting);
//   - the regret bookkeeping used throughout the paper's evaluation.
//
// A minimal pricing loop:
//
//	m, _ := datamarket.NewMechanism(20, 2*math.Sqrt(20),
//	        datamarket.WithReserve(),
//	        datamarket.WithThreshold(datamarket.DefaultThreshold(20, 10000, 0)))
//	for _, q := range queries {
//	        quote, _ := m.PostPrice(q.Features, q.Reserve)
//	        if quote.Decision != datamarket.DecisionSkip {
//	                m.Observe(buyerAccepts(quote.Price))
//	        }
//	}
//
// The sub-packages under internal/ contain the full implementation; the
// examples/ directory shows the three applications of the paper's
// evaluation (noisy linear queries, accommodation rental, ad impressions)
// plus the loan scenario of §IV-B.
package datamarket

import (
	"datamarket/internal/linalg"
	"datamarket/internal/market"
	"datamarket/internal/pricing"
)

// Vector is the dense vector type used for features and weights.
type Vector = linalg.Vector

// Mechanism is the ellipsoid-based posted price mechanism (Algorithm 1/2).
type Mechanism = pricing.Mechanism

// IntervalMechanism is the one-dimensional special case (§II-C).
type IntervalMechanism = pricing.IntervalMechanism

// NonlinearMechanism prices under the generalized model v = g(φ(x)ᵀθ*).
type NonlinearMechanism = pricing.NonlinearMechanism

// Quote is the broker's per-round output.
type Quote = pricing.Quote

// Decision classifies a quote (skip, exploratory, conservative).
type Decision = pricing.Decision

// Decision values.
const (
	DecisionSkip         = pricing.DecisionSkip
	DecisionExploratory  = pricing.DecisionExploratory
	DecisionConservative = pricing.DecisionConservative
)

// Option configures a mechanism.
type Option = pricing.Option

// Model bundles the link g and feature map φ of a market value family.
type Model = pricing.Model

// Family identifies a hosted pricing family (linear, nonlinear, sgd).
type Family = pricing.Family

// Family values.
const (
	FamilyLinear    = pricing.FamilyLinear
	FamilyNonlinear = pricing.FamilyNonlinear
	FamilySGD       = pricing.FamilySGD
)

// FamilySpec is the family factory input: family, dimension, and model
// config.
type FamilySpec = pricing.FamilySpec

// ModelConfig is the serializable model description of a family.
type ModelConfig = pricing.ModelConfig

// KernelConfig is the serializable description of a landmark kernel.
type KernelConfig = pricing.KernelConfig

// FamilyPoster is the capability bundle every hosted family implements
// (posting, pending introspection, counters, envelope snapshots).
type FamilyPoster = pricing.FamilyPoster

// Envelope is the versioned, family-tagged snapshot wire format.
type Envelope = pricing.Envelope

// Kernel is the Mercer kernel interface of the kernelized model.
type Kernel = pricing.Kernel

// LandmarkMap is the fixed-budget realization of the kernelized model.
type LandmarkMap = pricing.LandmarkMap

// SGDPoster is the gradient-descent pricing comparator of §VI-B.
type SGDPoster = pricing.SGDPoster

// Poster is the interface satisfied by every pricing strategy.
type Poster = pricing.Poster

// BatchRound is one round's input to batched pricing (features +
// reserve).
type BatchRound = pricing.BatchRound

// BatchOutcome is one round's result from batched pricing.
type BatchOutcome = pricing.BatchOutcome

// SyncPoster makes a FamilyPoster safe for concurrent round-at-a-time
// use, one round (PriceRound) or one batch (PriceBatch) at a time, and
// records each of those rounds' regret against the buyer's valuation
// under the same lock; Books reads counters and regret together, and its
// snapshot envelopes carry the regret. brokerd hosts one per stream, and
// a Broker prices through one.
type SyncPoster = pricing.SyncPoster

// MechanismSnapshot is the durable state of a Mechanism, for crash
// recovery and migration.
type MechanismSnapshot = pricing.Snapshot

// Tracker accumulates regret series and Table I statistics.
type Tracker = pricing.Tracker

// TrackerState is a Tracker's serializable aggregate state; snapshot
// envelopes carry it so a restore resumes regret bookkeeping.
type TrackerState = pricing.TrackerState

// RestoreTracker rebuilds an aggregates-only Tracker from its state.
func RestoreTracker(s *TrackerState) (*Tracker, error) { return pricing.RestoreTracker(s) }

// Counters aggregates per-round mechanism bookkeeping.
type Counters = pricing.Counters

// Broker runs the end-to-end personal data market (Fig. 2).
type Broker = market.Broker

// BrokerConfig configures a Broker.
type BrokerConfig = market.Config

// Owner is a data owner in the market.
type Owner = market.Owner

// Query is a consumer's priced request.
type Query = market.Query

// Transaction is one ledger row of the market.
type Transaction = market.Transaction

// NewMechanism builds the ellipsoid mechanism for n-dimensional features
// with initial knowledge ‖θ*‖ ≤ radius.
func NewMechanism(n int, radius float64, opts ...Option) (*Mechanism, error) {
	return pricing.New(n, radius, opts...)
}

// NewIntervalMechanism builds the 1-D mechanism with θ* ∈ [lo, hi].
func NewIntervalMechanism(lo, hi float64, opts ...Option) (*IntervalMechanism, error) {
	return pricing.NewInterval(lo, hi, opts...)
}

// NewNonlinearMechanism builds a mechanism for the model v = g(φ(x)ᵀθ*).
func NewNonlinearMechanism(model Model, dim int, radius float64, opts ...Option) (*NonlinearMechanism, error) {
	return pricing.NewNonlinear(model, dim, radius, opts...)
}

// NewFamilyPoster builds a poster of the requested family; an empty
// family selects linear.
func NewFamilyPoster(spec FamilySpec) (FamilyPoster, error) { return pricing.NewFamilyPoster(spec) }

// Families lists the hosted family names.
func Families() []Family { return pricing.Families() }

// RestoreFamilyPoster rebuilds a poster of the envelope's family.
func RestoreFamilyPoster(env *Envelope) (FamilyPoster, error) { return pricing.RestoreEnvelope(env) }

// DecodeEnvelope parses a family-tagged snapshot envelope (legacy bare
// ellipsoid snapshots are upgraded to linear envelopes).
func DecodeEnvelope(data []byte) (*Envelope, error) { return pricing.DecodeEnvelope(data) }

// BuildModel instantiates a nonlinear model from its serializable config.
func BuildModel(cfg ModelConfig) (Model, error) { return pricing.BuildModel(cfg) }

// NewSGDPoster builds the SGD comparator for n-dimensional features.
func NewSGDPoster(n int, eta0, margin float64, useReserve bool) (*SGDPoster, error) {
	return pricing.NewSGD(n, eta0, margin, useReserve)
}

// NewLandmarkMap builds a landmark kernel feature map.
func NewLandmarkMap(k Kernel, landmarks []Vector) (*LandmarkMap, error) {
	return pricing.NewLandmarkMap(k, landmarks)
}

// KernelizedModel is v = φ(x)ᵀθ* over landmark kernel features.
func KernelizedModel(m *LandmarkMap) Model { return pricing.KernelizedModel(m) }

// NewBroker builds the end-to-end data market broker.
func NewBroker(cfg BrokerConfig) (*Broker, error) { return market.NewBroker(cfg) }

// NewTracker builds an empty regret tracker. It keeps aggregates only;
// to plot a curve, collect Record's return value or CumulativeRegret
// after each round.
func NewTracker() *Tracker { return pricing.NewTracker() }

// NewSyncPoster wraps a FamilyPoster (a Mechanism, NonlinearMechanism
// or SGDPoster) for concurrent use.
func NewSyncPoster(inner FamilyPoster) *SyncPoster { return pricing.NewSync(inner) }

// RestoreMechanism rebuilds a Mechanism from a snapshot.
func RestoreMechanism(s *MechanismSnapshot) (*Mechanism, error) { return pricing.Restore(s) }

// DecodeMechanismSnapshot parses a snapshot encoded with Snapshot.Encode.
func DecodeMechanismSnapshot(data []byte) (*MechanismSnapshot, error) {
	return pricing.DecodeSnapshot(data)
}

// WithReserve enables the reserve price constraint (Algorithms 1 and 2).
func WithReserve() Option { return pricing.WithReserve() }

// WithUncertainty sets the robustness buffer δ (Algorithm 2).
func WithUncertainty(delta float64) Option { return pricing.WithUncertainty(delta) }

// WithThreshold overrides the exploration threshold ε.
func WithThreshold(eps float64) Option { return pricing.WithThreshold(eps) }

// DefaultThreshold returns the Theorem 1/Theorem 3 ε schedule.
func DefaultThreshold(n, horizon int, delta float64) float64 {
	return pricing.DefaultThreshold(n, horizon, delta)
}

// LinearModel is v = xᵀθ*.
func LinearModel() Model { return pricing.LinearModel() }

// LogLinearModel is log v = xᵀθ* (hedonic pricing).
func LogLinearModel() Model { return pricing.LogLinearModel() }

// LogLogModel is log v = Σ log(xᵢ)θᵢ*.
func LogLogModel() Model { return pricing.LogLogModel() }

// LogisticModel is v = sigmoid(xᵀθ*) (CTR pricing).
func LogisticModel() Model { return pricing.LogisticModel() }

// NewRiskAverse returns the always-post-reserve baseline of §V.
func NewRiskAverse() *pricing.RiskAverseBaseline { return pricing.NewRiskAverse() }

// SingleRoundRegret evaluates the paper's regret function (Eq. 1).
func SingleRoundRegret(value, reserve, posted float64) float64 {
	return pricing.SingleRoundRegret(value, reserve, posted)
}

// Sold reports whether a posted price sells against a market value.
func Sold(price, value float64) bool { return pricing.Sold(price, value) }

// PriceRound runs one valuation round on p: post a price for x under
// reserve, accept iff Sold(price, valuation), deliver the feedback unless
// the round was a skip, and record the round in tracker (nil records
// nothing). It returns the quote and whether the buyer accepted.
func PriceRound(p Poster, tracker *Tracker, x Vector, reserve, valuation float64) (Quote, bool, error) {
	return pricing.PriceRound(p, tracker, x, reserve, valuation)
}
