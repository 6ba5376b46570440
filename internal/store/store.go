// Package store is brokerd's persistence subsystem: a pluggable Store
// holding the durable state of every hosted pricing stream as a
// family-tagged snapshot envelope.
//
// The paper's posted-price mechanism is stateful online learning — the
// regret bound depends on the cuts accumulated over the whole horizon —
// so losing a stream's state mid-run silently destroys the guarantee. A
// Store gives the serving layer a place to record stream lifecycle
// events (create, restore, delete) and periodic checkpoints of changed
// streams, and to read the surviving set back after a crash.
//
// Two backends ship: Mem, an in-memory map for tests and embedders that
// want the lifecycle plumbing without disk, and Journal, a write-ahead
// log of CRC-framed records with group commit, incremental delta
// checkpoints, compaction into a base checkpoint, and a configurable
// fsync policy. The log's one active segment file takes every append
// until a compaction folds it into the checkpoint and starts the next.
package store

import (
	"errors"
	"sort"
	"sync"

	"datamarket/internal/pricing"
)

// Entry is one persisted stream: its registry ID and the family-tagged
// snapshot envelope (which carries the regret-tracker aggregates
// alongside the mechanism state). The envelope is owned by the store
// once passed to Put; callers must not mutate it afterwards.
type Entry struct {
	ID  string            `json:"id"`
	Env *pricing.Envelope `json:"env"`
}

// Stats describes a store's observable state for the ops surface
// (GET /v1/admin/store).
type Stats struct {
	// Backend names the implementation: "mem" or "journal".
	Backend string `json:"backend"`
	// Dir is the journal backend's data directory.
	Dir string `json:"dir,omitempty"`
	// Entries counts the live (non-deleted) streams the store holds.
	Entries int `json:"entries"`
	// LastLSN is the sequence number of the most recent record.
	LastLSN uint64 `json:"last_lsn"`
	// JournalBytes and JournalRecords measure the append-only tail since
	// the last compaction, summed across every live WAL segment.
	JournalBytes   int64 `json:"journal_bytes"`
	JournalRecords int   `json:"journal_records"`
	// Segments counts the on-disk WAL segment files (retired + active).
	Segments int `json:"segments"`
	// CheckpointBytes is the size of the last written checkpoint file.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// Appends and Compactions count operations since open.
	Appends     uint64 `json:"appends"`
	Compactions uint64 `json:"compactions"`
	// Commits counts group commits: batches of appended records that
	// shared one write (and, under the "always" policy, one fsync).
	Commits uint64 `json:"commits"`
	// CommitRecords counts the records those commits carried;
	// CommitRecords/Commits is the realized group-commit batch size.
	CommitRecords uint64 `json:"commit_records"`
	// CommitWaitMS is the cumulative wall-clock time appenders spent
	// waiting for their group commit to land.
	CommitWaitMS float64 `json:"commit_wait_ms"`
	// SyncErrors counts failed background flushes under the interval
	// fsync policy (each is retried on the next tick; a non-zero value
	// means the bounded-loss promise is currently at risk). Never
	// omitted: an explicit 0 is the "disk is healthy" reading, which
	// must stay distinguishable from "not reported".
	SyncErrors uint64 `json:"sync_errors"`
	// RecoveredEntries is the live set size found at open.
	RecoveredEntries int `json:"recovered_entries"`
	// TornTailRepaired reports that open found a torn record at the
	// journal tail (a crash mid-append) and truncated it away.
	TornTailRepaired bool `json:"torn_tail_repaired,omitempty"`
	// Fsync names the journal backend's sync policy.
	Fsync string `json:"fsync,omitempty"`
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Ticket is the asynchronous handle of an enqueued record. Wait blocks
// until the record's group commit lands (or fails) and returns the
// commit error; calling it again returns the same resolution. Tickets
// let a caller enqueue many records — for example a checkpoint pass
// enqueueing one delta per dirty stream while it holds that stream's
// shard lock — and pay for one shared commit after the last enqueue,
// instead of one fsync per record.
type Ticket struct {
	ch   chan error
	once sync.Once
	err  error
}

// Wait blocks until the enqueued record's commit resolves.
func (t *Ticket) Wait() error {
	t.once.Do(func() { t.err = <-t.ch })
	return t.err
}

// ResolvedTicket builds an already-resolved ticket. Store backends that
// commit synchronously (Mem, or any implementation without a group
// commit) resolve at enqueue time and return one of these from PutAsync.
func ResolvedTicket(err error) *Ticket {
	t := &Ticket{ch: make(chan error, 1)}
	t.ch <- err
	return t
}

// Store is the persistence interface the serving layer drives. Put,
// PutAsync, and Delete record lifecycle events and checkpoint deltas;
// Load returns the surviving live set at boot; Compact folds the
// journal tail into a fresh checkpoint. Implementations are safe for
// concurrent use.
type Store interface {
	// Put records the latest state of one stream, returning once the
	// record is committed (durably, under the journal backend's
	// FsyncAlways policy). Lifecycle events use it: write-ahead means
	// the event must be on disk before the in-memory commit.
	Put(e Entry) error
	// PutAsync enqueues the record and returns immediately; the ticket
	// resolves when the record's group commit lands. Checkpoint passes
	// use it so every dirty-stream delta of one pass shares one commit.
	PutAsync(e Entry) *Ticket
	// Delete records that a stream was removed.
	Delete(id string) error
	// Load returns the live entries, sorted by ID.
	Load() ([]Entry, error)
	// Compact folds all live state into a checkpoint and resets the
	// journal tail. A no-op for backends without a journal.
	Compact() error
	// MaybeCompact compacts only if the journal tail has outgrown its
	// configured threshold, reporting whether it did. Callers invoke it
	// at batch boundaries (e.g. after a checkpoint pass) so compaction
	// cost never rides on an individual Put or Delete.
	MaybeCompact() (bool, error)
	// Stats reports the store's observable state.
	Stats() Stats
	// Close flushes and releases the store. The store is unusable after.
	Close() error
}

// Mem is the in-memory Store: a mutex-guarded map. It gives tests and
// embedders the full lifecycle surface with zero I/O; nothing survives
// the process.
type Mem struct {
	mu      sync.Mutex
	closed  bool
	entries map[string]Entry
	lsn     uint64
	appends uint64
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{entries: make(map[string]Entry)} }

// Put records the latest state of one stream.
func (m *Mem) Put(e Entry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.lsn++
	m.appends++
	m.entries[e.ID] = e
	return nil
}

// PutAsync records the latest state of one stream. The map commits
// synchronously, so the ticket is resolved before it is returned.
func (m *Mem) PutAsync(e Entry) *Ticket { return ResolvedTicket(m.Put(e)) }

// Delete records that a stream was removed.
func (m *Mem) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.lsn++
	m.appends++
	delete(m.entries, id)
	return nil
}

// Load returns the live entries, sorted by ID.
func (m *Mem) Load() ([]Entry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	return sortedEntries(m.entries), nil
}

// Compact is a no-op: the map is always compact.
func (m *Mem) Compact() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	return nil
}

// MaybeCompact is a no-op: the map is always compact.
func (m *Mem) MaybeCompact() (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, ErrClosed
	}
	return false, nil
}

// Stats reports the store's observable state.
func (m *Mem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Backend: "mem", Entries: len(m.entries), LastLSN: m.lsn, Appends: m.appends}
}

// Close marks the store unusable.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// sortedEntries snapshots a live map into an ID-sorted slice.
func sortedEntries(entries map[string]Entry) []Entry {
	out := make([]Entry, 0, len(entries))
	for _, e := range entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

var _ Store = (*Mem)(nil)
