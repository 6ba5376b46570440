package pricing

import (
	"fmt"
	"sync"
	"sync/atomic"

	"datamarket/internal/linalg"
)

// SyncPoster wraps a FamilyPoster with a mutex so a single pricing stream
// can be driven from multiple goroutines (e.g. an HTTP handler per
// request). The PostPrice/Observe protocol remains one-round-at-a-time;
// Quote is the caller's cue to respond before the next round, so the
// typical pattern is to hold the round open inside one request handler via
// PriceRound.
type SyncPoster struct {
	mu    sync.Mutex
	inner FamilyPoster

	// tracker records every valuation round (PriceRound, PriceBatch)
	// under mu, in the same critical section that prices it, so the
	// counters and a snapshot of the wrapped poster always pair with the
	// regret of exactly the rounds they reflect. Two-phase rounds
	// (PostPrice/Observe) carry no valuation and never enter it.
	tracker *Tracker

	// pending shadows the wrapped poster's pending state. Every state
	// change runs under mu and refreshes the shadow before unlocking, so
	// the shadow is exact — and Pending can read it lock-free, never
	// waiting behind an in-flight round or batch.
	pending atomic.Bool

	// rev counts state-mutating calls. It only ever increases, it is
	// bumped before the lock is released, and reading it never takes the
	// lock — so a checkpointer can compare it against the revision of its
	// last persisted snapshot and skip streams that saw no traffic, at
	// the cost of one atomic load per stream per pass. A call that fails
	// without mutating state may still bump the revision; the only
	// consequence is one redundant persist, never a missed one.
	rev atomic.Uint64
}

// NewSync wraps a FamilyPoster for concurrent use, with an empty regret
// tracker.
func NewSync(inner FamilyPoster) *SyncPoster {
	return &SyncPoster{inner: inner, tracker: NewTracker()}
}

// RestoreSync rebuilds a SyncPoster from an envelope: the wrapped poster
// from the family payload and the regret tracker from Regret (empty when
// the envelope carries none).
func RestoreSync(env *Envelope) (*SyncPoster, error) {
	inner, tracker, err := restoreState(env)
	if err != nil {
		return nil, err
	}
	return &SyncPoster{inner: inner, tracker: tracker}, nil
}

// restoreState rebuilds the poster and tracker an envelope describes. An
// envelope without tracker state (legacy snapshots, hand-written
// envelopes) yields an empty tracker: regret bookkeeping restarts at the
// restore point, as Envelope.Regret documents.
func restoreState(env *Envelope) (FamilyPoster, *Tracker, error) {
	inner, err := RestoreEnvelope(env)
	if err != nil {
		return nil, nil, err
	}
	if env.Regret == nil {
		return inner, NewTracker(), nil
	}
	tracker, err := RestoreTracker(env.Regret)
	if err != nil {
		return nil, nil, err
	}
	return inner, tracker, nil
}

// refreshPending re-derives the pending shadow from the wrapped poster.
// The caller must hold s.mu.
func (s *SyncPoster) refreshPending() { s.pending.Store(s.inner.Pending()) }

// Revision returns the monotonic mutation counter: it increases on every
// state-mutating call (pricing rounds, observes, batches, restores) and
// never otherwise. Reading it is one atomic load — cheap enough for a
// checkpointer to poll across thousands of streams. A snapshot taken
// after reading the revision reflects at least that revision, so
// "persist if Revision() differs from the revision recorded at the last
// persist" never loses a mutation (read the revision before
// snapshotting, not after).
func (s *SyncPoster) Revision() uint64 { return s.rev.Load() }

// PostPrice locks and forwards. The round it opens is not recorded in
// the regret tracker: the buyer's valuation is never seen.
func (s *SyncPoster) PostPrice(x linalg.Vector, reserve float64) (Quote, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, err := s.inner.PostPrice(x, reserve)
	s.rev.Add(1)
	s.refreshPending()
	return q, err
}

// Observe locks and forwards.
func (s *SyncPoster) Observe(accepted bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.inner.Observe(accepted)
	s.rev.Add(1)
	s.refreshPending()
	return err
}

// PriceRound runs one full round atomically against the buyer's
// valuation: post the price, accept iff Sold(price, valuation), deliver
// the feedback and record the round in the regret tracker — all under
// the lock, so concurrent callers interleave at round granularity. A
// non-finite reserve or valuation fails the round before the mechanism
// runs.
func (s *SyncPoster) PriceRound(x linalg.Vector, reserve, valuation float64) (Quote, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.refreshPending()
	s.rev.Add(1)
	return s.priceRoundLocked(x, reserve, valuation)
}

// priceRoundLocked is the one-round protocol shared by PriceRound and
// PriceBatch; the caller must hold s.mu. Only a round that prices
// without error enters the tracker.
func (s *SyncPoster) priceRoundLocked(x linalg.Vector, reserve, valuation float64) (Quote, bool, error) {
	if !isFinite(reserve) || !isFinite(valuation) {
		// The tracker's accumulators and the JSON snapshot carrying them
		// hold finite values only.
		return Quote{}, false, fmt.Errorf("pricing: reserve %g and valuation %g must be finite", reserve, valuation)
	}
	return PriceRound(s.inner, s.tracker, x, reserve, valuation)
}

// Counters reads the wrapped poster's counters under the lock.
func (s *SyncPoster) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Counters()
}

// Books reads the wrapped poster's counters and the regret tracker's
// aggregates under one lock acquisition, so every valuation round in the
// counters is in the regret and vice versa.
func (s *SyncPoster) Books() (Counters, TrackerState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Counters(), s.tracker.State()
}

// SnapshotEnvelope captures the wrapped poster's family-tagged state,
// with the regret tracker's aggregates in Regret, under the lock. It
// fails if the wrapped poster has a round pending feedback.
func (s *SyncPoster) SnapshotEnvelope() (*Envelope, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	env, err := s.inner.SnapshotEnvelope()
	if err != nil {
		return nil, err
	}
	ts := s.tracker.State()
	env.Regret = &ts
	return env, nil
}

// RestoreEnvelopeSnapshot atomically replaces the wrapped poster and the
// regret tracker with those rebuilt from the envelope. Concurrent
// PriceRound callers serialize around the swap, so a live stream can be
// rolled back in place. It refuses to swap while a two-phase round is
// pending feedback — the buyer's decision would be silently discarded —
// and refuses cross-family restores, which would silently change the
// stream's model class. A refused restore changes nothing.
func (s *SyncPoster) RestoreEnvelopeSnapshot(env *Envelope) error {
	inner, tracker, err := restoreState(env)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.inner.Family(); cur != env.Family {
		return fmt.Errorf("%w: snapshot is %q, stream hosts %q", ErrFamilyMismatch, env.Family, cur)
	}
	if s.inner.Pending() {
		return fmt.Errorf("pricing: cannot restore while a round is pending feedback: %w", ErrPendingRound)
	}
	s.inner, s.tracker = inner, tracker
	s.rev.Add(1)
	s.refreshPending()
	return nil
}

var _ Poster = (*SyncPoster)(nil)
