package store

// Group commit for the journal backend. Appenders never touch the
// segment file: Put/PutAsync/Delete encode the record under the journal
// mutex, append it to the pending queue, and wait on a per-record
// ticket. A single committer goroutine drains the queue in batches —
// one write and, under FsyncAlways, one fsync per batch — so N
// concurrent appenders share one disk round trip instead of paying N.
//
// One batching rule: a batch is whatever queued while the previous
// batch's write and fsync were in flight. A lone appender commits at
// once, and concurrent appenders pile up behind the disk round trip
// they wait on anyway, so batching adds no latency of its own. The SDK
// Flusher coalesces calls by the same rule.

import (
	"fmt"
	"io"
	"time"
)

// commitReq is one enqueued record awaiting its group commit.
type commitReq struct {
	frame []byte
	op    string
	id    string
	entry Entry // opPut only
	enq   time.Time
	done  chan error // buffered; resolved exactly once by the committer
}

// apply commits the record's mutation to the in-memory live set. The
// committer calls it under j.mu after the batch landed on disk, so the
// map only ever reflects committed records.
func (r *commitReq) apply(j *Journal) {
	switch r.op {
	case opPut:
		j.entries[r.id] = r.entry
	case opDel:
		delete(j.entries, r.id)
	}
}

// enqueue appends a framed record to the pending queue and signals the
// committer. The caller must hold j.mu and have passed appendable().
func (j *Journal) enqueue(rec *record, e Entry) (*commitReq, error) {
	frame, err := encodeRecord(rec)
	if err != nil {
		return nil, err
	}
	req := &commitReq{
		frame: frame, op: rec.Op, id: rec.ID, entry: e,
		enq: time.Now(), done: make(chan error, 1),
	}
	j.pending = append(j.pending, req)
	select {
	case j.kick <- struct{}{}:
	default:
	}
	return req, nil
}

// committerLoop is the group-commit goroutine: wait for work, commit
// everything queued as one batch, repeat. On shutdown it drains every
// record enqueued before Close latched the journal.
func (j *Journal) committerLoop() {
	defer close(j.commitDone)
	for {
		select {
		case <-j.kick:
		case <-j.stopCommit:
			for j.commitBatch() {
			}
			return
		}
		j.commitBatch()
	}
}

// commitBatch writes and (policy permitting) fsyncs everything pending
// as one batch, applies the records to the live set, and resolves the
// waiters. It reports whether there was anything to commit.
//
// The batch commits all-or-nothing, preserving the single-append
// rollback contract: a failed write or sync is rolled back by
// truncating the active segment to the last good offset, so no record
// of a failed batch can resurrect on replay and a later successful
// batch can never land behind a torn frame. If the rollback itself
// fails, the journal latches broken and refuses all further appends
// rather than acknowledge records it may lose; Close retries the
// truncate (see Journal.Close).
func (j *Journal) commitBatch() bool {
	j.mu.Lock()
	if len(j.pending) == 0 {
		j.idle.Broadcast()
		j.mu.Unlock()
		return false
	}
	batch := j.pending
	j.pending = nil
	if j.broken {
		// The journal latched broken with records still queued: fail
		// them without touching the file (the good prefix must stay
		// exactly where the failed rollback left it).
		err := j.brokenErr
		j.idle.Broadcast()
		j.mu.Unlock()
		for _, r := range batch {
			r.done <- err
		}
		return true
	}
	j.committing = true
	f := j.f
	lastGood := j.active.bytes
	policy := j.cfg.Fsync
	j.mu.Unlock()

	buf := make([]byte, 0, batchBytes(batch))
	for _, r := range batch {
		buf = append(buf, r.frame...)
	}
	var cause string
	var ioErr error
	if _, err := f.Write(buf); err != nil {
		cause, ioErr = "appending", err
	} else if policy == FsyncAlways {
		if err := f.Sync(); err != nil {
			cause, ioErr = "syncing", err
		}
	}
	rolledBack := false
	if ioErr != nil {
		// A short write may have landed part of the batch; truncating to
		// the last good offset removes every trace of it.
		if terr := f.Truncate(lastGood); terr == nil {
			if _, serr := f.Seek(lastGood, io.SeekStart); serr == nil {
				rolledBack = true
			}
		}
	}

	j.mu.Lock()
	j.committing = false
	now := time.Now()
	j.commits++
	j.commitRecs += uint64(len(batch))
	for _, r := range batch {
		j.commitWait += now.Sub(r.enq)
	}
	var commitErr error
	switch {
	case ioErr == nil:
		n := int64(len(buf))
		j.active.bytes += n
		j.active.records += len(batch)
		j.journalBytes += n
		j.journalRecords += len(batch)
		j.appends += uint64(len(batch))
		for _, r := range batch {
			r.apply(j)
		}
		if policy != FsyncAlways {
			j.dirty = true
		}
	case rolledBack:
		commitErr = fmt.Errorf("store: %s journal record(s): %w", cause, ioErr)
	default:
		// The rejected frames may still be on disk; remember where the
		// good prefix ends so Close can retry the truncate. If the
		// process dies before any retry succeeds, the next boot can
		// resurrect the rejected records — the unavoidable residue of a
		// disk that fails writes and truncates at once.
		j.broken = true
		j.brokenAt = lastGood
		j.brokenErr = fmt.Errorf("store: journal disabled after unrecoverable append failure: %w", ioErr)
		commitErr = fmt.Errorf("store: journal append failed and could not be rolled back; journal disabled: %w", ioErr)
	}
	if len(j.pending) == 0 {
		j.idle.Broadcast()
	}
	j.mu.Unlock()
	for _, r := range batch {
		r.done <- commitErr
	}
	return true
}

// batchBytes sums the framed size of a batch.
func batchBytes(batch []*commitReq) int {
	var n int
	for _, r := range batch {
		n += len(r.frame)
	}
	return n
}
