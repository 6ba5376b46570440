package server

// This file wires the registry's stream lifecycle to the persistence
// subsystem (internal/store). The paper's mechanism is stateful online
// learning — the regret guarantee depends on the cuts accumulated over
// the whole horizon — so brokerd must not forget a stream's state on
// restart. The Persister journals every lifecycle event write-ahead of
// the in-memory commit, runs a background checkpointer that re-persists
// only streams whose poster revision moved since their last persist, and
// replays the store back through Registry.GetOrRestore at boot.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"datamarket/api"
	"datamarket/internal/pricing"
	"datamarket/internal/store"
)

// DefaultCheckpointInterval is the background checkpointer period used
// when PersistConfig.Interval is zero.
const DefaultCheckpointInterval = 5 * time.Second

// PersistConfig configures a Persister.
type PersistConfig struct {
	// Interval is the background checkpoint period; 0 picks
	// DefaultCheckpointInterval, negative disables the background loop
	// (explicit Checkpoint calls still work).
	Interval time.Duration
	// Logf, when set, receives recovery and checkpoint activity lines
	// (brokerd routes log.Printf here under -verbose).
	Logf func(format string, args ...any)
}

// CheckpointStats reports one checkpoint pass; the wire form lives in
// the public api package.
type CheckpointStats = api.CheckpointStats

// Persister connects a Registry to a Store: it is the registry's
// LifecycleObserver, the background checkpointer, and the boot-time
// recovery driver. Wire it with AttachPersistence, or manually as
//
//	p := NewPersister(reg, st, cfg)
//	n, err := p.Recover()       // replay the store into the registry
//	reg.SetObserver(p)          // then journal new lifecycle events
//	p.Start()                   // then checkpoint in the background
//	...
//	p.Shutdown()                // final checkpoint + compact + close
type Persister struct {
	reg      *Registry
	st       store.Store
	interval time.Duration
	logf     func(string, ...any)

	// passMu serializes checkpoint passes (timer vs admin endpoint vs
	// shutdown).
	passMu    sync.Mutex
	lastPass  atomic.Pointer[CheckpointStats]
	recovered int

	stop chan struct{}
	done chan struct{}
}

// NewPersister builds a Persister over an open store. It performs no I/O
// until Recover or the first checkpoint.
func NewPersister(reg *Registry, st store.Store, cfg PersistConfig) *Persister {
	interval := cfg.Interval
	if interval == 0 {
		interval = DefaultCheckpointInterval
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Persister{
		reg:      reg,
		st:       st,
		interval: interval,
		logf:     logf,
	}
}

// AttachPersistence performs the full wiring: recover the store into the
// registry, install the lifecycle observer, and start the background
// checkpointer. It returns the Persister and the number of recovered
// streams.
func AttachPersistence(reg *Registry, st store.Store, cfg PersistConfig) (*Persister, int, error) {
	p := NewPersister(reg, st, cfg)
	n, err := p.Recover()
	if err != nil {
		return nil, 0, err
	}
	reg.SetObserver(p)
	p.Start()
	return p, n, nil
}

// Recover replays the store's live set into the registry through
// GetOrRestore. Call it before SetObserver — replayed streams must not
// be re-journaled as fresh lifecycle events. A stream that fails to
// restore fails recovery loudly: silently dropping it would be exactly
// the state loss the subsystem exists to prevent.
//
// Replay runs in parallel, one worker per registry shard: restores
// within a shard serialize on the shard's lock anyway, while distinct
// shards rebuild their posters (the expensive part — envelope decode +
// mechanism reconstruction) concurrently. Recovery wall time therefore
// scales with the largest shard, not the total stream count.
func (p *Persister) Recover() (int, error) {
	entries, err := p.st.Load()
	if err != nil {
		return 0, fmt.Errorf("server: loading store: %w", err)
	}
	groups := make(map[int][]store.Entry)
	for _, e := range entries {
		i := p.reg.ShardIndex(e.ID)
		groups[i] = append(groups[i], e)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(groups) {
		workers = len(groups)
	}
	var (
		wg    sync.WaitGroup
		sem   = make(chan struct{}, max(workers, 1))
		errMu sync.Mutex
		errs  []error
	)
	for _, group := range groups {
		wg.Add(1)
		sem <- struct{}{}
		go func(group []store.Entry) {
			defer wg.Done()
			defer func() { <-sem }()
			for _, e := range group {
				st, _, err := p.reg.GetOrRestore(e.ID, e.Env)
				if err != nil {
					errMu.Lock()
					errs = append(errs, fmt.Errorf("server: recovering stream %q: %w", e.ID, err))
					errMu.Unlock()
					return
				}
				st.persisted.Store(st.Revision() + 1)
			}
		}(group)
	}
	wg.Wait()
	if len(errs) > 0 {
		return 0, errors.Join(errs...)
	}
	p.recovered = len(entries)
	if len(entries) > 0 {
		p.logf("recovered %d stream(s) from store", len(entries))
	}
	return len(entries), nil
}

// Start launches the background checkpoint loop (a no-op for a negative
// interval).
func (p *Persister) Start() {
	if p.interval < 0 || p.stop != nil {
		return
	}
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go p.loop()
}

func (p *Persister) loop() {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			stats := p.Checkpoint()
			if stats.Persisted > 0 || stats.Errors > 0 {
				p.logf("checkpoint: %d/%d stream(s) persisted, %d clean, %d pending, %d error(s) in %.1fms",
					stats.Persisted, stats.Streams, stats.SkippedClean, stats.SkippedPending,
					stats.Errors, stats.DurationMS)
			}
		}
	}
}

// Checkpoint runs one pass over the live streams, persisting those whose
// revision moved since their last persist. Passes are serialized; the
// pass holds no registry-wide lock, only each dirty stream's shard read
// lock while that stream is snapshotted and journaled. Concurrent reads
// (pricing lookups) share that lock — but if a lifecycle write queues on
// the shard mid-journal, Go's RWMutex holds back new readers too, so
// pricing on ~1/shards of streams can stall behind one dirty stream's
// journal write (worst case an fsync, under -fsync always). That is the
// price of making persist atomic against delete; clean streams take no
// lock at all, which is what keeps idle passes microseconds.
func (p *Persister) Checkpoint() CheckpointStats {
	p.passMu.Lock()
	defer p.passMu.Unlock()
	start := time.Now()
	streams := p.reg.Streams()
	stats := CheckpointStats{Streams: len(streams)}
	pendings := make([]pendingPersist, 0, 64)
	for _, st := range streams {
		switch pp, err := p.checkpointStream(st); {
		case err == nil:
			pendings = append(pendings, pp)
		case errors.Is(err, errCheckpointClean):
			stats.SkippedClean++
		case errors.Is(err, errCheckpointPending):
			// Between-rounds snapshots only; retried next pass.
			stats.SkippedPending++
		case errors.Is(err, ErrStreamNotFound):
			// Deleted mid-pass: its tombstone is already journaled.
		default:
			stats.Errors++
			p.logf("checkpoint: stream %q: %v", st.ID(), err)
		}
	}
	// Every dirty stream's delta is enqueued; now wait for the shared
	// group commits. The whole pass costs a handful of fsyncs instead of
	// one per dirty stream, and no shard lock is held while any of them
	// run — the locks were released as soon as each delta was queued.
	for _, pp := range pendings {
		if err := pp.tkt.Wait(); err != nil {
			stats.Errors++
			p.logf("checkpoint: stream %q: %v", pp.st.ID(), err)
			// Undo the optimistic revision record so the stream is
			// re-persisted next pass — unless a newer persist of the same
			// stream already landed.
			pp.st.persisted.CompareAndSwap(pp.rev+1, 0)
			continue
		}
		stats.Persisted++
	}
	stats.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	p.lastPass.Store(&stats)
	// Auto-compaction rides the pass boundary, never an individual
	// journal append — here no registry lock is held, so rewriting the
	// whole live set stalls nothing but the next pass.
	//lint:ignore lockdiscipline passMu exists to serialize passes, and compaction riding the pass boundary under it is the design; no registry lock is held here
	switch compacted, err := p.st.MaybeCompact(); {
	case err != nil:
		p.logf("checkpoint: compacting store: %v", err)
	case compacted:
		p.logf("checkpoint: journal compacted")
	}
	return stats
}

// Sentinel outcomes of checkpointStream.
var (
	errCheckpointClean   = errors.New("checkpoint: unchanged")
	errCheckpointPending = errors.New("checkpoint: round pending")
)

// pendingPersist is one enqueued checkpoint delta awaiting its group
// commit; the pass waits on the ticket after visiting every stream.
type pendingPersist struct {
	st  *Stream
	rev uint64
	tkt *store.Ticket
}

// checkpointStream enqueues one stream's delta if its revision moved,
// returning the commit ticket for the pass to wait on. The revision is
// read before the snapshot: a round landing in between makes the
// snapshot newer than the recorded revision, which costs one redundant
// persist next pass — never a lost one. Running inside Registry.Visit
// orders the persist strictly against any concurrent delete of the same
// stream, and the pointer-identity check guards the delete-then-recreate
// race: Visit resolves the ID fresh, and writing the dead stream's
// snapshot under the ID would overwrite the recreated stream's record.
//
// Only the enqueue happens under the shard lock (PutAsync returns
// without any file I/O); the commit itself — the write and fsync — runs
// on the store's committer goroutine after the lock is gone, so pricing
// on this shard never stalls behind the disk.
func (p *Persister) checkpointStream(st *Stream) (pendingPersist, error) {
	rev := st.Revision()
	if st.persisted.Load() == rev+1 {
		return pendingPersist{}, errCheckpointClean
	}
	var pp pendingPersist
	err := p.reg.Visit(st.ID(), func(cur *Stream) error {
		if cur != st {
			// The ID now names a different stream (deleted and
			// recreated mid-pass). Its create event already persisted
			// it; nothing to do for the dead one.
			return errCheckpointClean
		}
		if st.Pending() {
			return errCheckpointPending
		}
		env, err := st.Snapshot()
		if err != nil {
			// A quote can open a round between the Pending probe and the
			// snapshot (quotes take no shard lock); that is the same
			// benign retry-next-pass condition, not a persist failure.
			if errors.Is(err, pricing.ErrPendingRound) {
				return errCheckpointPending
			}
			return err
		}
		pp = pendingPersist{st: st, rev: rev, tkt: p.st.PutAsync(store.Entry{ID: st.ID(), Env: env})}
		// Record the revision while the shard lock still excludes an
		// in-place restore, whose persist records a newer revision; the
		// record is optimistic — the delta is only enqueued — and the
		// pass undoes it if the commit fails.
		st.persisted.Store(rev + 1)
		return nil
	})
	return pp, err
}

// StreamCreated journals the new stream's initial state (write-ahead:
// the stream is not yet visible, so its poster cannot be mid-round).
func (p *Persister) StreamCreated(st *Stream) error { return p.persistStream(st) }

// StreamRestored journals the restored state.
func (p *Persister) StreamRestored(st *Stream) error { return p.persistStream(st) }

func (p *Persister) persistStream(st *Stream) error {
	rev := st.Revision()
	env, err := st.Snapshot()
	if err != nil {
		return err
	}
	if err := p.st.Put(store.Entry{ID: st.ID(), Env: env}); err != nil {
		return err
	}
	st.persisted.Store(rev + 1)
	return nil
}

// StreamDeleted journals the tombstone (write-ahead: the stream is
// removed from the registry only if the tombstone lands).
func (p *Persister) StreamDeleted(id string) error { return p.st.Delete(id) }

// Status reports the persistence surface for GET /v1/admin/store.
func (p *Persister) Status() StoreStatusResponse {
	st := p.st.Stats()
	resp := StoreStatusResponse{
		Configured:       true,
		RecoveredStreams: p.recovered,
		Store:            &st,
		LastCheckpoint:   p.lastPass.Load(),
	}
	if p.interval > 0 {
		resp.CheckpointInterval = p.interval.String()
	}
	return resp
}

// Compact folds the store's journal tail into a fresh checkpoint file.
func (p *Persister) Compact() error { return p.st.Compact() }

// Stop halts the background loop without a final pass (tests; Shutdown
// is the production path). Safe to call twice.
func (p *Persister) Stop() {
	if p.stop == nil {
		return
	}
	close(p.stop)
	<-p.done
	p.stop = nil
}

// Shutdown is the graceful exit: stop the loop, run a final checkpoint
// pass so every changed stream is durable, compact, and close the store.
// A stream still holding an unanswered two-phase quote cannot be
// snapshotted — its rounds since its last persist are not captured —
// so Shutdown reports such streams as an error rather than pretending
// the exit was loss-free.
func (p *Persister) Shutdown() error {
	p.Stop()
	stats := p.Checkpoint()
	p.logf("final checkpoint: %d/%d stream(s) persisted, %d pending, %d error(s)",
		stats.Persisted, stats.Streams, stats.SkippedPending, stats.Errors)
	var err error
	if stats.Errors > 0 {
		err = fmt.Errorf("server: final checkpoint failed for %d stream(s)", stats.Errors)
	} else if stats.SkippedPending > 0 {
		err = fmt.Errorf("server: final checkpoint could not capture %d stream(s) with a round pending feedback",
			stats.SkippedPending)
	}
	if cerr := p.st.Compact(); cerr != nil && err == nil {
		err = fmt.Errorf("server: final compaction: %w", cerr)
	}
	if cerr := p.st.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

var _ LifecycleObserver = (*Persister)(nil)
