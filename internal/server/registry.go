// Package server hosts many independent pricing streams behind an
// HTTP/JSON edge. A stream is a family plus a model config — the linear
// ellipsoid, the nonlinear g∘φ extensions (including landmark kernels),
// or the SGD comparator — built through the pricing family factory and
// wrapped in a pricing.SyncPoster; the streams live in a registry sharded
// by FNV hash of the stream ID so hot streams do not contend on a single
// mutex.
package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"datamarket/internal/linalg"
	"datamarket/internal/pricing"
)

// Registry errors.
var (
	ErrStreamExists   = errors.New("server: stream already exists")
	ErrStreamNotFound = errors.New("server: stream not found")
	ErrStreamPending  = errors.New("server: stream has a round pending feedback")
	// ErrPersist wraps lifecycle-observer (persistence) failures. The
	// request was valid; the server could not make the event durable —
	// a 5xx to clients, not a 4xx.
	ErrPersist = errors.New("server: persistence failed")
)

// Stream is one hosted pricing stream: a concurrency-safe poster of some
// family, which also keeps the regret bookkeeping of the rounds whose
// valuations the server saw.
type Stream struct {
	id     string
	family pricing.Family
	dim    int // input feature dimension
	poster *pricing.SyncPoster

	// persisted is 1 + the poster revision of the stream's last committed
	// store record, or 0 for none. The Persister reads and writes it to
	// skip streams that saw no traffic since their last persist.
	persisted atomic.Uint64
}

// MaxDim caps both the input feature dimension of a hosted stream and the
// mapped (score-space) dimension — for a landmark stream, the number of
// landmarks. The ellipsoid shape matrix is n×n over the mapped features,
// so an unbounded n would let one small create request allocate arbitrary
// memory; 1024 keeps a stream under ~8 MB of state and its snapshot
// comfortably inside maxBodyBytes.
const MaxDim = 1024

// newStream builds a stream of the requested family from a create request.
// Family-specific validation (model config, radius/threshold domains)
// lives in the pricing factory; the server only enforces its own resource
// caps.
func newStream(req CreateStreamRequest) (*Stream, error) {
	if req.ID == "" {
		return nil, fmt.Errorf("server: stream id required")
	}
	if req.Dim < 1 || req.Dim > MaxDim {
		return nil, fmt.Errorf("server: dimension %d invalid, want 1…%d", req.Dim, MaxDim)
	}
	spec := pricing.FamilySpec{
		Family:    pricing.Family(req.Family),
		Dim:       req.Dim,
		Radius:    req.Radius,
		Reserve:   req.Reserve,
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
	return &Stream{
		id:     req.ID,
		family: poster.Family(),
		dim:    req.Dim,
		poster: pricing.NewSync(poster),
	}, nil
}

// checkEnvelopeCaps enforces the server's resource limits on a snapshot
// envelope: both the input dimension and, for landmark streams, the
// mapped (score-space) dimension are capped at MaxDim. Both the fresh-ID
// and the in-place restore paths go through it.
func checkEnvelopeCaps(env *pricing.Envelope) (int, error) {
	dim, err := env.Dim()
	if err != nil {
		return 0, err
	}
	if dim > MaxDim {
		return 0, fmt.Errorf("server: snapshot dimension %d exceeds limit %d", dim, MaxDim)
	}
	if env.Nonlinear != nil && len(env.Nonlinear.Model.Landmarks) > MaxDim {
		return 0, fmt.Errorf("server: %d landmarks exceed limit %d", len(env.Nonlinear.Model.Landmarks), MaxDim)
	}
	return dim, nil
}

// restoredStream rebuilds a stream around a family-tagged snapshot
// envelope.
func restoredStream(id string, env *pricing.Envelope) (*Stream, error) {
	if id == "" {
		return nil, fmt.Errorf("server: stream id required")
	}
	dim, err := checkEnvelopeCaps(env)
	if err != nil {
		return nil, err
	}
	poster, err := pricing.RestoreSync(env)
	if err != nil {
		return nil, err
	}
	return &Stream{id: id, family: env.Family, dim: dim, poster: poster}, nil
}

// ID returns the stream's identifier.
func (st *Stream) ID() string { return st.id }

// Family returns the stream's pricing family.
func (st *Stream) Family() pricing.Family { return st.family }

// Dim returns the stream's input feature dimension.
func (st *Stream) Dim() int { return st.dim }

// Price runs one full round atomically against the buyer valuation: the
// offer is accepted iff price ≤ valuation. The round is recorded in the
// stream's regret bookkeeping.
func (st *Stream) Price(features linalg.Vector, reserve, valuation float64) (pricing.Quote, bool, error) {
	return st.poster.PriceRound(features, reserve, valuation)
}

// PriceBatch runs len(rounds) full rounds back to back under one
// acquisition of the stream's lock, accepting each offer iff
// price ≤ valuations[i] and recording each successful round in the
// regret bookkeeping. valuations must align with rounds.
func (st *Stream) PriceBatch(rounds []pricing.BatchRound, valuations []float64) []pricing.BatchOutcome {
	return st.poster.PriceBatch(rounds, valuations)
}

// Pending reports whether the stream's two-phase round is awaiting
// feedback. SyncPoster.Pending reads a lock-free shadow maintained
// under the pricing lock, so this never waits on an in-flight round.
func (st *Stream) Pending() bool { return st.poster.Pending() }

// Quote opens a round without resolving it (phase one of the two-phase
// protocol). The mechanism stays pending until Observe.
func (st *Stream) Quote(features linalg.Vector, reserve float64) (pricing.Quote, error) {
	return st.poster.PostPrice(features, reserve)
}

// Observe closes the pending round (phase two).
func (st *Stream) Observe(accepted bool) error {
	return st.poster.Observe(accepted)
}

// Snapshot captures the stream's state in a family-tagged envelope that
// carries the regret aggregates alongside the poster state, so a restore
// resumes both the mechanism and the stream's bookkeeping.
func (st *Stream) Snapshot() (*pricing.Envelope, error) { return st.poster.SnapshotEnvelope() }

// Revision exposes the poster's monotonic mutation counter (one atomic
// load, never waits on pricing). The background checkpointer compares it
// against the revision of the last persisted snapshot to skip streams
// that saw no traffic.
func (st *Stream) Revision() uint64 { return st.poster.Revision() }

// Restore replaces the stream's poster state in place. Cross-family
// snapshots are rejected — restoring an sgd envelope into a nonlinear
// stream would silently change the model class callers rely on — and the
// MaxDim caps apply just as on the fresh-ID restore path.
func (st *Stream) Restore(env *pricing.Envelope) error {
	dim, err := checkEnvelopeCaps(env)
	if err != nil {
		return err
	}
	if env.Family != st.family {
		return fmt.Errorf("%w: snapshot is %q, stream %q hosts %q",
			pricing.ErrFamilyMismatch, env.Family, st.id, st.family)
	}
	if dim != st.dim {
		return fmt.Errorf("server: snapshot dimension %d, stream dimension %d", dim, st.dim)
	}
	return st.poster.RestoreEnvelopeSnapshot(env)
}

// Stats reports the poster counters and regret bookkeeping, read under
// one acquisition of the stream's lock.
func (st *Stream) Stats() StatsResponse {
	counters, reg := st.poster.Books()
	return StatsResponse{
		ID: st.id, Family: string(st.family), Dim: st.dim,
		Counters: counters, HasCounters: true,
		Regret: RegretStats{
			Rounds:            reg.Regret.N, // one regret sample per recorded round
			CumulativeRegret:  reg.CumRegret,
			CumulativeValue:   reg.CumValue,
			CumulativeRevenue: reg.CumRevenue,
			RegretRatio:       reg.RegretRatio(),
		},
	}
}

// DefaultShards is the registry shard count used by NewRegistry(0). With
// FNV-1a placement, 32 shards keep per-shard lock hold times negligible
// well past a hundred concurrent streams.
const DefaultShards = 32

// LifecycleObserver receives the registry's stream lifecycle events.
// Persistence hangs off these hooks: brokerd attaches a Persister so
// every create, restore, and delete is journaled before (write-ahead of)
// the in-memory commit.
//
// Callbacks run while the stream's shard write lock is held, so they
// are ordered exactly like the events themselves — a create's callback
// never races the same stream's delete callback. They must not call
// back into the registry (deadlock). The cost of that ordering is that
// a slow callback (e.g. a journal fsync under -fsync always) holds the
// write lock, stalling every operation on the shard — including the
// Registry.Get at the head of each pricing request for streams hashed
// there. Lifecycle events are rare next to pricing, and 1/DefaultShards
// of streams share the stall, so the trade is deliberate; observers
// should still keep callbacks as short as durability allows.
//
// An error vetoes the event: the registry returns it to the caller and
// the in-memory commit does not happen (for in-place restores, which
// mutate an existing stream before the callback, the restore itself
// stands — see GetOrRestore).
type LifecycleObserver interface {
	// StreamCreated fires before a newly created stream becomes visible.
	StreamCreated(st *Stream) error
	// StreamRestored fires after a snapshot restore, both the fresh-ID
	// path (before the stream becomes visible) and the in-place path.
	StreamRestored(st *Stream) error
	// StreamDeleted fires before the stream is removed.
	StreamDeleted(id string) error
}

// Registry holds the live streams, sharded by FNV-1a hash of the stream
// ID. Shard locks are only held for map operations — never while a
// mechanism prices — so a hot stream slows down nobody else.
type Registry struct {
	shards []registryShard

	// obs holds the optional lifecycle observer as an obsHolder (an
	// atomic.Value needs one consistent concrete type).
	obs atomic.Value
}

// obsHolder boxes the observer interface for atomic.Value.
type obsHolder struct{ obs LifecycleObserver }

// SetObserver installs the lifecycle observer. Install it before serving
// traffic (and after boot-time recovery, so replayed streams are not
// re-journaled); events that ran before the observer was installed are
// not replayed.
func (r *Registry) SetObserver(obs LifecycleObserver) { r.obs.Store(obsHolder{obs}) }

// observer returns the installed observer, or nil.
func (r *Registry) observer() LifecycleObserver {
	if h, ok := r.obs.Load().(obsHolder); ok {
		return h.obs
	}
	return nil
}

type registryShard struct {
	mu      sync.RWMutex
	streams map[string]*Stream
}

// NewRegistry builds a registry with the given shard count (0 picks
// DefaultShards).
func NewRegistry(shards int) *Registry {
	if shards <= 0 {
		shards = DefaultShards
	}
	r := &Registry{shards: make([]registryShard, shards)}
	for i := range r.shards {
		r.shards[i].streams = make(map[string]*Stream)
	}
	return r
}

func (r *Registry) shardIndex(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(r.shards)))
}

func (r *Registry) shard(id string) *registryShard {
	return &r.shards[r.shardIndex(id)]
}

// ShardIndex exposes the stream's shard placement so batch callers can
// group work by shard before fanning out.
func (r *Registry) ShardIndex(id string) int { return r.shardIndex(id) }

// Create registers a new stream; it fails if the ID is taken, or if the
// lifecycle observer refuses the event (e.g. the journal append failed —
// the stream then never becomes visible, so a client's 5xx is honest:
// nothing was created).
func (r *Registry) Create(req CreateStreamRequest) (*Stream, error) {
	st, err := newStream(req)
	if err != nil {
		return nil, err
	}
	sh := r.shard(req.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.streams[req.ID]; ok {
		return nil, fmt.Errorf("%w: %q", ErrStreamExists, req.ID)
	}
	if obs := r.observer(); obs != nil {
		if err := obs.StreamCreated(st); err != nil {
			return nil, fmt.Errorf("%w: created stream %q: %v", ErrPersist, req.ID, err)
		}
	}
	sh.streams[req.ID] = st
	return st, nil
}

// Get returns the stream with the given ID.
func (r *Registry) Get(id string) (*Stream, error) {
	sh := r.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st, ok := sh.streams[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrStreamNotFound, id)
	}
	return st, nil
}

// GetOrRestore returns the existing stream after restoring the envelope
// into it, or registers a new stream rebuilt from the envelope. The
// shard lock is held across the in-place restore so a concurrent Delete
// cannot orphan the stream between lookup and restore.
//
// On the in-place path the restore is applied before the observer fires
// (the event describes the restored stream), so an observer error leaves
// the in-memory restore in place; the returned error tells the caller
// the new state may not be durable yet — the next checkpoint pass
// re-persists it.
func (r *Registry) GetOrRestore(id string, env *pricing.Envelope) (*Stream, bool, error) {
	sh := r.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st, ok := sh.streams[id]; ok {
		if err := st.Restore(env); err != nil {
			return st, false, err
		}
		if obs := r.observer(); obs != nil {
			if err := obs.StreamRestored(st); err != nil {
				return st, false, fmt.Errorf("%w: stream %q restored in memory but not journaled: %v", ErrPersist, id, err)
			}
		}
		return st, false, nil
	}
	st, err := restoredStream(id, env)
	if err != nil {
		return nil, false, err
	}
	if obs := r.observer(); obs != nil {
		if err := obs.StreamRestored(st); err != nil {
			return nil, false, fmt.Errorf("%w: restored stream %q: %v", ErrPersist, id, err)
		}
	}
	sh.streams[id] = st
	return st, true, nil
}

// Delete removes a stream. Unless force is set, it refuses to remove a
// stream whose two-phase round is pending feedback — deleting then would
// silently discard the buyer's in-flight decision, the same hazard
// RestoreSnapshot guards against.
//
// The probe reads SyncPoster's lock-free pending shadow (exact — it is
// maintained under the pricing lock), so it can run under the shard
// lock, atomically with the removal, without ever waiting on an
// in-flight pricing round. A quote concurrent with the delete can
// still open its round just after the probe and lose its feedback —
// the unavoidable case of a caller quoting through a *Stream obtained
// before the delete completed.
func (r *Registry) Delete(id string, force bool) error {
	sh := r.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.streams[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrStreamNotFound, id)
	}
	if !force && st.Pending() {
		return fmt.Errorf("%w: %q", ErrStreamPending, id)
	}
	if obs := r.observer(); obs != nil {
		if err := obs.StreamDeleted(id); err != nil {
			return fmt.Errorf("%w: delete of stream %q: %v", ErrPersist, id, err)
		}
	}
	delete(sh.streams, id)
	return nil
}

// Streams snapshots the live stream set (no particular order). The
// pointers stay valid after the shard locks are released — a stream
// deleted concurrently simply stops receiving traffic — so callers like
// the checkpointer can iterate thousands of streams without holding any
// registry lock.
func (r *Registry) Streams() []*Stream {
	out := make([]*Stream, 0, 64)
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, st := range sh.streams {
			out = append(out, st)
		}
		sh.mu.RUnlock()
	}
	return out
}

// Visit runs f(st) for the stream with the given ID while holding its
// shard read lock. Because Delete journals and removes under the shard
// write lock, work done inside f is ordered strictly before or strictly
// after any delete of the stream — the checkpointer uses this to make
// "snapshot then persist" atomic against deletion, so a checkpoint can
// never resurrect a deleted stream in the store.
func (r *Registry) Visit(id string, f func(*Stream) error) error {
	sh := r.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st, ok := sh.streams[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrStreamNotFound, id)
	}
	return f(st)
}

// Len counts the hosted streams.
func (r *Registry) Len() int {
	var n int
	for i := range r.shards {
		r.shards[i].mu.RLock()
		n += len(r.shards[i].streams)
		r.shards[i].mu.RUnlock()
	}
	return n
}

// List returns stream infos sorted by ID.
func (r *Registry) List() []StreamInfo {
	var out []StreamInfo
	for i := range r.shards {
		r.shards[i].mu.RLock()
		for _, st := range r.shards[i].streams {
			out = append(out, streamInfo(st))
		}
		r.shards[i].mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
