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

// NewSync wraps a FamilyPoster for concurrent use.
func NewSync(inner FamilyPoster) *SyncPoster { return &SyncPoster{inner: inner} }

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

// PostPrice locks and forwards.
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

// PriceRound runs one full round atomically: post the price, obtain the
// buyer's decision from respond, and deliver the feedback — all under the
// lock, so concurrent callers interleave at round granularity.
func (s *SyncPoster) PriceRound(x linalg.Vector, reserve float64,
	respond func(Quote) bool) (Quote, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.refreshPending()
	s.rev.Add(1)
	return s.priceRoundLocked(x, reserve, 0, func(_ int, q Quote) bool { return respond(q) })
}

// priceRoundLocked is the one-round protocol shared by PriceRound and
// PriceBatch; the caller must hold s.mu. respond receives the caller's
// round index i (0 for single rounds).
func (s *SyncPoster) priceRoundLocked(x linalg.Vector, reserve float64, i int,
	respond func(int, Quote) bool) (Quote, bool, error) {
	q, err := s.inner.PostPrice(x, reserve)
	if err != nil {
		return Quote{}, false, err
	}
	if q.Decision == DecisionSkip {
		// A skip round posts no price and leaves nothing pending: the
		// mechanism returns before opening a round, so the next
		// PostPrice proceeds normally (see TestSyncPosterSkipRound).
		return q, false, nil
	}
	accepted := respond(i, q)
	if err := s.inner.Observe(accepted); err != nil {
		return q, accepted, err
	}
	return q, accepted, nil
}

// Counters reads the wrapped poster's counters under the lock.
func (s *SyncPoster) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Counters()
}

// SnapshotEnvelope captures the wrapped poster's family-tagged state under
// the lock. It fails if the wrapped poster has a round pending feedback.
func (s *SyncPoster) SnapshotEnvelope() (*Envelope, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.SnapshotEnvelope()
}

// RestoreEnvelopeSnapshot atomically replaces the wrapped poster with one
// rebuilt from the envelope. Concurrent PriceRound callers serialize
// around the swap, so a live stream can be rolled back in place. It
// refuses to swap while a two-phase round is pending feedback — the
// buyer's decision would be silently discarded — and refuses cross-family
// restores, which would silently change the stream's model class.
func (s *SyncPoster) RestoreEnvelopeSnapshot(env *Envelope) error {
	fp, err := RestoreEnvelope(env)
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
	s.inner = fp
	s.rev.Add(1)
	s.refreshPending()
	return nil
}

var _ Poster = (*SyncPoster)(nil)
