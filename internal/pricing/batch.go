package pricing

import "datamarket/internal/linalg"

// BatchRound is one round's input to PriceBatch: the query's feature
// vector and reserve price.
type BatchRound struct {
	X       linalg.Vector
	Reserve float64
}

// BatchOutcome is one round's result from PriceBatch. Accepted is
// meaningful only when Err is nil and the quote was not a skip.
type BatchOutcome struct {
	Quote    Quote
	Accepted bool
	Err      error
}

// PriceBatch runs len(rounds) full rounds back to back under ONE lock
// acquisition: for each round it posts the price, accepts iff
// Sold(price, valuations[i]), delivers the feedback and records the
// round in the regret tracker before moving on. Concurrent callers
// therefore interleave at batch granularity; within a batch the rounds
// are sequential, exactly as if the caller had issued k PriceRound calls
// with no writer in between. valuations must align with rounds.
//
// A round that fails (e.g. a feature-dimension mismatch or a non-finite
// reserve) records its error in the corresponding outcome and leaves the
// mechanism and the tracker untouched; later rounds in the batch still
// run.
func (s *SyncPoster) PriceBatch(rounds []BatchRound, valuations []float64) []BatchOutcome {
	out := make([]BatchOutcome, len(rounds))
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.refreshPending()
	// One revision bump covers the whole batch: the checkpointer only
	// needs "changed since last persist", not a round count.
	s.rev.Add(1)
	for i := range rounds {
		q, accepted, err := s.priceRoundLocked(rounds[i].X, rounds[i].Reserve, valuations[i])
		out[i] = BatchOutcome{Quote: q, Accepted: accepted, Err: err}
	}
	return out
}

// Pending reports whether the wrapped poster has a two-phase round
// awaiting feedback. It reads the lock-free shadow maintained under the
// lock by every state-changing method, so it is exact and never waits
// behind an in-flight round or batch.
func (s *SyncPoster) Pending() bool { return s.pending.Load() }
