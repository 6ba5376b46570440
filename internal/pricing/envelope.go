package pricing

import (
	"encoding/json"
	"errors"
	"fmt"
)

// EnvelopeVersion is the wire-format version of the family-tagged snapshot
// envelope.
const EnvelopeVersion = 1

// ErrFamilyMismatch is returned (wrapped) when a snapshot of one family is
// restored into a stream hosting another.
var ErrFamilyMismatch = errors.New("pricing: snapshot family does not match hosted family")

// Envelope is the versioned, family-tagged serialization of any hosted
// poster's state: exactly one of the family payloads is set, matching
// Family. It supersedes the bare ellipsoid Snapshot as the durable wire
// format; DecodeEnvelope still accepts the legacy format and upgrades it
// to a linear envelope.
type Envelope struct {
	Version int    `json:"version"`
	Family  Family `json:"family"`
	// Linear is the ellipsoid mechanism state.
	Linear *Snapshot `json:"linear,omitempty"`
	// Nonlinear is the inner ellipsoid plus the model spec.
	Nonlinear *NonlinearSnapshot `json:"nonlinear,omitempty"`
	// SGD is the gradient poster's point estimate and schedule position.
	SGD *SGDSnapshot `json:"sgd,omitempty"`
	// Regret optionally carries the regret-tracker aggregates of the
	// valuation rounds priced through a SyncPoster. It is orthogonal to
	// the family payload: family posters never read or write it —
	// SyncPoster fills it on snapshot and rebuilds its tracker from it on
	// restore (RestoreSync, RestoreEnvelopeSnapshot). The field is
	// additive and optional within envelope version 1, so envelopes
	// written before it existed (and bare legacy snapshots) restore with a
	// zeroed tracker; that reset is part of the restore contract and is
	// asserted by TestRestoreWithoutRegretResetsTracker.
	Regret *TrackerState `json:"regret,omitempty"`
}

// NonlinearSnapshot is the serializable state of a NonlinearMechanism: the
// score-space ellipsoid plus the public model spec (link, map, kernel,
// landmarks) needed to rebuild φ and g.
type NonlinearSnapshot struct {
	// Dim is the input feature dimension (before φ).
	Dim int `json:"dim"`
	// Model rebuilds the link and feature map.
	Model ModelConfig `json:"model"`
	// Inner is the score-space ellipsoid mechanism state.
	Inner *Snapshot `json:"inner"`
}

// SGDSnapshot is the serializable state of an SGDPoster.
type SGDSnapshot struct {
	N          int       `json:"n"`
	Theta      []float64 `json:"theta"`
	Eta0       float64   `json:"eta0"`
	Margin     float64   `json:"margin"`
	UseReserve bool      `json:"use_reserve"`
	// Steps is the round count t driving the eta0/√t and t^{-1/3} schedules.
	Steps    int      `json:"steps"`
	Counters Counters `json:"counters"`
}

// Validate checks version, family, and that exactly the matching payload
// is present.
func (e *Envelope) Validate() error {
	if e == nil {
		return fmt.Errorf("pricing: nil snapshot envelope")
	}
	if e.Version != EnvelopeVersion {
		return fmt.Errorf("pricing: unsupported envelope version %d", e.Version)
	}
	if _, ok := familyRegistry[e.Family]; !ok {
		return fmt.Errorf("pricing: unknown snapshot family %q (have %v)", e.Family, Families())
	}
	set := 0
	for fam, present := range map[Family]bool{
		FamilyLinear:    e.Linear != nil,
		FamilyNonlinear: e.Nonlinear != nil,
		FamilySGD:       e.SGD != nil,
	} {
		if !present {
			continue
		}
		set++
		if fam != e.Family {
			return fmt.Errorf("pricing: envelope tagged %q carries a %q payload", e.Family, fam)
		}
	}
	if set != 1 {
		return fmt.Errorf("pricing: envelope tagged %q must carry exactly its own payload", e.Family)
	}
	return nil
}

// Dim returns the input feature dimension recorded in the envelope.
func (e *Envelope) Dim() (int, error) {
	if err := e.Validate(); err != nil {
		return 0, err
	}
	switch e.Family {
	case FamilyLinear:
		return e.Linear.N, nil
	case FamilyNonlinear:
		return e.Nonlinear.Dim, nil
	default:
		return e.SGD.N, nil
	}
}

// Encode serializes the envelope to JSON.
func (e *Envelope) Encode() ([]byte, error) { return json.Marshal(e) }

// DecodeEnvelope parses a family-tagged envelope. Data lacking a family tag
// is tried as a legacy bare ellipsoid Snapshot and upgraded to a linear
// envelope, so snapshots taken before the family refactor stay restorable.
func DecodeEnvelope(data []byte) (*Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("pricing: decoding snapshot envelope: %w", err)
	}
	if env.Family == "" {
		snap, err := DecodeSnapshot(data)
		if err == nil && (snap.N <= 0 || len(snap.Shape) != snap.N*snap.N || len(snap.Center) != snap.N) {
			err = fmt.Errorf("no ellipsoid state for dimension %d", snap.N)
		}
		if err != nil {
			return nil, fmt.Errorf("pricing: snapshot envelope missing family (and not a legacy snapshot: %v)", err)
		}
		env = Envelope{Version: EnvelopeVersion, Family: FamilyLinear, Linear: snap}
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	return &env, nil
}

// RestoreEnvelope rebuilds a poster of the envelope's family.
func RestoreEnvelope(env *Envelope) (FamilyPoster, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	return familyRegistry[env.Family].restore(env)
}

// Family identifies the linear ellipsoid family.
func (m *Mechanism) Family() Family { return FamilyLinear }

// SnapshotEnvelope captures the mechanism state in a family-tagged
// envelope. Like Snapshot, it fails while a round is pending feedback.
func (m *Mechanism) SnapshotEnvelope() (*Envelope, error) {
	s, err := m.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Envelope{Version: EnvelopeVersion, Family: FamilyLinear, Linear: s}, nil
}

func restoreLinearFamily(env *Envelope) (FamilyPoster, error) {
	return Restore(env.Linear)
}

// Family identifies the nonlinear family.
func (nm *NonlinearMechanism) Family() Family { return FamilyNonlinear }

// SnapshotEnvelope captures the inner ellipsoid and the model spec. It
// fails while a round is pending feedback, and for models whose link, map,
// or kernel is not one of the named serializable types.
func (nm *NonlinearMechanism) SnapshotEnvelope() (*Envelope, error) {
	inner, err := nm.inner.Snapshot()
	if err != nil {
		return nil, err
	}
	cfg, err := ConfigOfModel(nm.model)
	if err != nil {
		return nil, err
	}
	return &Envelope{
		Version:   EnvelopeVersion,
		Family:    FamilyNonlinear,
		Nonlinear: &NonlinearSnapshot{Dim: nm.dim, Model: cfg, Inner: inner},
	}, nil
}

func restoreNonlinearFamily(env *Envelope) (FamilyPoster, error) {
	snap := env.Nonlinear
	if snap.Dim <= 0 {
		return nil, fmt.Errorf("pricing: nonlinear snapshot dimension %d invalid", snap.Dim)
	}
	model, err := BuildModel(snap.Model)
	if err != nil {
		return nil, err
	}
	if lm, ok := model.Map.(*LandmarkMap); ok && lm.InDim() != snap.Dim {
		return nil, fmt.Errorf("pricing: nonlinear snapshot landmarks have dimension %d, want %d",
			lm.InDim(), snap.Dim)
	}
	inner, err := Restore(snap.Inner)
	if err != nil {
		return nil, err
	}
	if want := model.Map.OutDim(snap.Dim); inner.Dim() != want {
		return nil, fmt.Errorf("pricing: nonlinear snapshot inner dimension %d, model maps to %d",
			inner.Dim(), want)
	}
	return &NonlinearMechanism{inner: inner, model: model, dim: snap.Dim}, nil
}

// Family identifies the sgd family.
func (s *SGDPoster) Family() Family { return FamilySGD }

// SnapshotEnvelope captures the point estimate, schedule position, and
// counters. It fails while a round is pending feedback.
func (s *SGDPoster) SnapshotEnvelope() (*Envelope, error) {
	if s.pending {
		return nil, fmt.Errorf("pricing: cannot snapshot with a round pending feedback: %w", ErrPendingRound)
	}
	return &Envelope{
		Version: EnvelopeVersion,
		Family:  FamilySGD,
		SGD: &SGDSnapshot{
			N:          len(s.theta),
			Theta:      s.theta.Clone(),
			Eta0:       s.eta0,
			Margin:     s.margin,
			UseReserve: s.useReserve,
			Steps:      s.steps,
			Counters:   s.counters,
		},
	}, nil
}

func restoreSGDFamily(env *Envelope) (FamilyPoster, error) {
	snap := env.SGD
	if snap.N <= 0 || len(snap.Theta) != snap.N {
		return nil, fmt.Errorf("pricing: sgd snapshot theta has %d entries, want n=%d", len(snap.Theta), snap.N)
	}
	for i, v := range snap.Theta {
		if !isFinite(v) {
			return nil, fmt.Errorf("pricing: sgd snapshot theta entry %d is %g, want finite", i, v)
		}
	}
	if !isFinite(snap.Eta0) || snap.Eta0 <= 0 {
		return nil, fmt.Errorf("pricing: sgd snapshot eta0 %g invalid", snap.Eta0)
	}
	if !isFinite(snap.Margin) || snap.Margin < 0 {
		return nil, fmt.Errorf("pricing: sgd snapshot margin %g invalid", snap.Margin)
	}
	if snap.Steps < 0 {
		return nil, fmt.Errorf("pricing: sgd snapshot step count %d invalid", snap.Steps)
	}
	poster, err := NewSGD(snap.N, snap.Eta0, snap.Margin, snap.UseReserve)
	if err != nil {
		return nil, err
	}
	copy(poster.theta, snap.Theta)
	poster.steps = snap.Steps
	poster.counters = snap.Counters
	return poster, nil
}
