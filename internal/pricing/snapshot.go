package pricing

import (
	"encoding/json"
	"fmt"
	"math"

	"datamarket/internal/ellipsoid"
	"datamarket/internal/linalg"
)

// Snapshot is the serializable state of a Mechanism: everything needed to
// resume pricing in a new process. Pending feedback is not serializable —
// snapshot between rounds (after Observe, before the next PostPrice).
type Snapshot struct {
	// Version guards the wire format.
	Version int `json:"version"`
	// N is the feature dimension.
	N int `json:"n"`
	// Shape is the row-major n×n shape matrix A of the knowledge set.
	Shape []float64 `json:"shape"`
	// Center is the ellipsoid center c.
	Center []float64 `json:"center"`
	// Threshold, Delta, UseReserve, ConservativeCuts mirror the options.
	Threshold        float64 `json:"threshold"`
	Delta            float64 `json:"delta"`
	UseReserve       bool    `json:"use_reserve"`
	ConservativeCuts bool    `json:"conservative_cuts"`
	// Counters carries the run statistics.
	Counters Counters `json:"counters"`
}

// snapshotVersion is the current wire format version.
const snapshotVersion = 1

// Snapshot captures the mechanism state. It fails if a round is pending
// feedback.
func (m *Mechanism) Snapshot() (*Snapshot, error) {
	if m.pending {
		return nil, fmt.Errorf("pricing: cannot snapshot with a round pending feedback: %w", ErrPendingRound)
	}
	// Shape() returns a fresh mirrored copy, so the snapshot can own its
	// storage.
	return &Snapshot{
		Version:          snapshotVersion,
		N:                m.n,
		Shape:            m.ell.Shape().Data(),
		Center:           m.ell.Center(),
		Threshold:        m.cfg.eps,
		Delta:            m.cfg.delta,
		UseReserve:       m.cfg.useReserve,
		ConservativeCuts: m.cfg.conservativeCuts,
		Counters:         m.counters,
	}, nil
}

// MarshalJSON is provided on Snapshot implicitly via its exported fields;
// Encode/Decode helpers wrap the round trip.

// Encode serializes the snapshot to JSON.
func (s *Snapshot) Encode() ([]byte, error) { return json.Marshal(s) }

// DecodeSnapshot parses a snapshot produced by Encode.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("pricing: decoding snapshot: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("pricing: unsupported snapshot version %d", s.Version)
	}
	return &s, nil
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Restore rebuilds a Mechanism from a snapshot.
func Restore(s *Snapshot) (*Mechanism, error) {
	if s == nil {
		return nil, fmt.Errorf("pricing: nil snapshot")
	}
	if s.N <= 0 {
		return nil, fmt.Errorf("pricing: snapshot dimension %d invalid", s.N)
	}
	if len(s.Shape) != s.N*s.N {
		return nil, fmt.Errorf("pricing: snapshot shape has %d entries, want %d", len(s.Shape), s.N*s.N)
	}
	if len(s.Center) != s.N {
		return nil, fmt.Errorf("pricing: snapshot center has %d entries, want %d", len(s.Center), s.N)
	}
	// Hand-edited or corrupted JSON can smuggle NaN/Inf entries past the
	// structural checks; they would poison every Support call afterwards.
	for i, v := range s.Shape {
		if !isFinite(v) {
			return nil, fmt.Errorf("pricing: snapshot shape entry %d is %g, want finite", i, v)
		}
	}
	for i, v := range s.Center {
		if !isFinite(v) {
			return nil, fmt.Errorf("pricing: snapshot center entry %d is %g, want finite", i, v)
		}
	}
	// NaN compares false against everything, so the sign checks below
	// would let a NaN threshold or delta through without these guards.
	if !isFinite(s.Threshold) || s.Threshold <= 0 {
		return nil, fmt.Errorf("pricing: snapshot threshold %g invalid", s.Threshold)
	}
	if !isFinite(s.Delta) || s.Delta < 0 {
		return nil, fmt.Errorf("pricing: snapshot delta %g invalid", s.Delta)
	}
	// The knowledge set takes ownership of this fresh copy, so the
	// restored mechanism shares no storage with the snapshot.
	shape := linalg.NewMatrix(s.N, s.N)
	copy(shape.Data(), s.Shape)
	ell, err := ellipsoid.New(shape, linalg.Vector(s.Center))
	if err != nil {
		return nil, fmt.Errorf("pricing: snapshot knowledge set invalid: %w", err)
	}
	return &Mechanism{
		n:   s.N,
		ell: ell,
		cfg: config{
			useReserve:       s.UseReserve,
			delta:            s.Delta,
			eps:              s.Threshold,
			epsSet:           true,
			conservativeCuts: s.ConservativeCuts,
		},
		counters: s.Counters,
	}, nil
}
