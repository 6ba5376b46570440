package store

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Checkpoint file names inside the data directory. Segment file naming
// lives in segment.go.
const (
	checkpointFile = "checkpoint.ckpt"
	checkpointTmp  = "checkpoint.ckpt.tmp"
)

// FsyncPolicy selects how aggressively the journal is flushed to stable
// storage. The trade-off is the classic WAL one: "always" makes every
// acknowledged lifecycle event and checkpoint record survive a machine
// crash at the cost of one fsync per group commit; "interval" bounds the
// loss window to the sync interval; "never" leaves flushing to the OS
// page cache (a process crash loses nothing — the file writes happened —
// but a machine crash can lose the unflushed tail).
type FsyncPolicy string

const (
	FsyncAlways   FsyncPolicy = "always"
	FsyncInterval FsyncPolicy = "interval"
	FsyncNever    FsyncPolicy = "never"
)

// ParseFsyncPolicy validates a policy name (the -fsync flag value).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return FsyncPolicy(s), nil
	case "":
		return FsyncInterval, nil
	default:
		return "", fmt.Errorf("store: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// JournalConfig configures OpenJournal. The zero value of every field
// picks a sensible default.
type JournalConfig struct {
	// Dir is the data directory (required). It is created if missing.
	Dir string
	// Fsync selects the flush policy; default FsyncInterval.
	Fsync FsyncPolicy
	// CompactAt is the journal-tail size (bytes, summed across segments)
	// beyond which MaybeCompact compacts. Default 64 MB; negative makes
	// MaybeCompact a no-op (explicit Compact calls still work).
	CompactAt int64
}

// Journal is the on-disk Store: a write-ahead log of CRC-framed records
// in numbered segment files plus a base checkpoint file that compaction
// rewrites. The full live set is also kept in memory (it must fit
// anyway — the registry holds live posters for every stream), which
// makes Load trivial and lets Compact rewrite the checkpoint without
// re-reading the journal.
//
// Writes go through group commit: appenders enqueue framed records and
// a single committer goroutine batches them into one write (and, under
// FsyncAlways, one shared fsync) per batch — see committer.go.
// Every batch lands in the one active segment; a compaction folds the
// live set into the base checkpoint, starts a fresh active segment and
// deletes the old ones (segment.go says when a directory holds more
// than one).
//
// Crash safety: appends are framed, so a crash mid-append leaves a torn
// tail in the newest segment that the next open detects by CRC and
// truncates; a torn frame in any older segment is real corruption and
// fails the open. Checkpoints are written to a temp file, fsynced, and
// renamed into place, so a crash mid-compaction leaves the previous
// checkpoint intact; the checkpoint's meta record carries the last LSN
// it includes, so segment records that survive a crash between the
// rename and the segment reset are recognized as already-applied and
// skipped on replay. A pre-segmentation journal.wal is migrated
// transparently (replayed as the oldest retired segment).
type Journal struct {
	cfg JournalConfig

	mu        sync.Mutex
	idle      *sync.Cond // signaled when pending drains and no batch I/O is in flight
	closed    bool
	broken    bool  // a failed batch could not be rolled back; appends refused
	brokenAt  int64 // end of the active segment's good prefix when broken
	brokenErr error

	f       *os.File // active segment
	active  segmentInfo
	retired []segmentInfo
	nextIdx uint64 // next segment index to create (monotonic, never reused)
	dirty   bool   // appended since last fsync

	// Group-commit queue (see committer.go).
	pending    []*commitReq
	committing bool // batch I/O in flight outside the lock

	entries map[string]Entry
	lsn     uint64 // last assigned sequence number
	ckptLSN uint64 // last LSN covered by the checkpoint file

	journalBytes   int64 // across all segments
	journalRecords int
	ckptBytes      int64
	appends        uint64
	compactions    uint64
	commits        uint64
	commitRecs     uint64
	commitWait     time.Duration
	syncErrors     uint64
	recovered      int
	tornRepaired   bool

	kick       chan struct{} // buffered 1: records pending
	stopCommit chan struct{}
	commitDone chan struct{}
	stopSync   chan struct{}
	syncDone   chan struct{}
}

// OpenJournal opens (or initializes) the journal store in cfg.Dir,
// replaying checkpoint and segments into the in-memory live set,
// truncating any torn tail a crash left in the newest segment, and
// starting the group-commit goroutine.
func OpenJournal(cfg JournalConfig) (*Journal, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: journal needs a data directory")
	}
	if cfg.Fsync == "" {
		cfg.Fsync = FsyncInterval
	}
	if _, err := ParseFsyncPolicy(string(cfg.Fsync)); err != nil {
		return nil, err
	}
	if cfg.CompactAt == 0 {
		cfg.CompactAt = 64 << 20
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	j := &Journal{cfg: cfg, entries: make(map[string]Entry)}
	j.idle = sync.NewCond(&j.mu)
	if err := j.loadCheckpoint(); err != nil {
		return nil, err
	}
	if err := j.replaySegments(); err != nil {
		return nil, err
	}
	// Make the active segment's directory entry durable: per-commit
	// fsyncs flush the file's contents, but on a fresh data dir the file
	// itself exists only once the directory is synced.
	if cfg.Fsync != FsyncNever {
		if err := syncDir(cfg.Dir); err != nil {
			j.f.Close()
			return nil, err
		}
	}
	j.recovered = len(j.entries)
	j.kick = make(chan struct{}, 1)
	j.stopCommit = make(chan struct{})
	j.commitDone = make(chan struct{})
	go j.committerLoop()
	if j.cfg.Fsync == FsyncInterval {
		j.stopSync = make(chan struct{})
		j.syncDone = make(chan struct{})
		go j.syncLoop()
	}
	return j, nil
}

// loadCheckpoint reads checkpoint.ckpt into the live set. A missing file
// is a fresh store. Unlike the journal, a checkpoint is never
// legitimately torn (it is published by atomic rename), so corruption is
// an error, not a truncation.
func (j *Journal) loadCheckpoint() error {
	path := filepath.Join(j.cfg.Dir, checkpointFile)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: opening checkpoint: %w", err)
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil {
		j.ckptBytes = fi.Size()
	}
	r := bufio.NewReaderSize(f, 1<<20)
	first := true
	for {
		payload, err := readFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("store: checkpoint %s is corrupt: %w", path, err)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("store: checkpoint %s: %w", path, err)
		}
		if first {
			if rec.Op != opCheckpoint {
				return fmt.Errorf("store: checkpoint %s does not start with a checkpoint record", path)
			}
			j.ckptLSN = rec.LSN
			j.lsn = rec.LSN
			first = false
			continue
		}
		if rec.Op != opPut {
			return fmt.Errorf("store: checkpoint %s carries a %q record", path, rec.Op)
		}
		j.entries[rec.ID] = Entry{ID: rec.ID, Env: rec.Env}
	}
	return nil
}

// replaySegments replays every WAL segment oldest-first, applying
// records past the checkpoint LSN to the live set. The newest numbered
// segment stays open as the active one; when the directory holds no
// numbered segment (fresh store, or only a migrated legacy journal.wal)
// a fresh active segment is created.
func (j *Journal) replaySegments() error {
	segs, err := listSegments(j.cfg.Dir)
	if err != nil {
		return err
	}
	for i := range segs {
		si := &segs[i]
		newest := i == len(segs)-1
		f, err := os.OpenFile(si.path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("store: opening segment %s: %w", si.path, err)
		}
		if err := j.replaySegment(f, si, newest); err != nil {
			f.Close()
			return err
		}
		j.journalBytes += si.bytes
		j.journalRecords += si.records
		if newest && si.index > 0 {
			// Becomes the active segment: leave it open, positioned after
			// the last whole frame.
			if _, err := f.Seek(si.bytes, io.SeekStart); err != nil {
				f.Close()
				return fmt.Errorf("store: seeking segment end: %w", err)
			}
			j.f = f
			j.active = *si
		} else {
			f.Close()
			j.retired = append(j.retired, *si)
		}
	}
	j.nextIdx = 1
	if len(segs) > 0 {
		j.nextIdx = segs[len(segs)-1].index + 1
	}
	if j.f == nil {
		nf, err := createSegment(j.cfg.Dir, j.nextIdx)
		if err != nil {
			return err
		}
		j.f = nf
		j.active = segmentInfo{index: j.nextIdx, path: nf.Name()}
		j.nextIdx++
	}
	return nil
}

// replaySegment applies one segment's records. A torn frame ends the
// newest segment (crash mid-append: truncate and continue) but is
// corruption anywhere else — retired segments were complete before the
// next one was created, so a hole in one means lost records.
func (j *Journal) replaySegment(f *os.File, si *segmentInfo, newest bool) error {
	r := bufio.NewReaderSize(f, 1<<20)
	var offset int64
	torn := false
	for {
		payload, err := readFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			torn = true
			break
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			// The frame CRC passed but the payload is not a valid record:
			// not a torn write, genuine corruption.
			return fmt.Errorf("store: segment %s at offset %d: %w", si.path, offset, err)
		}
		offset += frameHeaderSize + int64(len(payload))
		si.records++
		if rec.LSN > j.lsn {
			j.lsn = rec.LSN
		}
		if rec.LSN <= j.ckptLSN {
			// Already folded into the checkpoint: a crash hit between the
			// checkpoint rename and the segment reset.
			continue
		}
		switch rec.Op {
		case opPut:
			j.entries[rec.ID] = Entry{ID: rec.ID, Env: rec.Env}
		case opDel:
			delete(j.entries, rec.ID)
		case opCheckpoint:
			return fmt.Errorf("store: segment %s carries a checkpoint record", si.path)
		}
	}
	if torn {
		if !newest {
			return fmt.Errorf("store: segment %s is corrupt at offset %d (torn frame in a retired segment; only the newest segment may carry a crash tail)", si.path, offset)
		}
		if err := f.Truncate(offset); err != nil {
			return fmt.Errorf("store: truncating torn segment tail: %w", err)
		}
		j.tornRepaired = true
	}
	si.bytes = offset
	return nil
}

// syncEvery is the FsyncInterval flush period.
const syncEvery = 100 * time.Millisecond

// syncLoop flushes the active segment every syncEvery while dirty
// (FsyncInterval policy). A failed sync keeps the dirty flag — the flush
// is retried on the next tick — and is counted in Stats, so a failing
// disk cannot silently void the policy's bounded-loss promise.
func (j *Journal) syncLoop() {
	defer close(j.syncDone)
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	for {
		select {
		case <-j.stopSync:
			return
		case <-t.C:
			j.mu.Lock()
			if j.dirty && !j.closed {
				if err := j.f.Sync(); err != nil {
					j.syncErrors++
				} else {
					j.dirty = false
				}
			}
			j.mu.Unlock()
		}
	}
}

// appendable reports whether the journal can accept records. The caller
// must hold j.mu.
func (j *Journal) appendable() error {
	if j.closed {
		return ErrClosed
	}
	if j.broken {
		return fmt.Errorf("store: journal disabled after unrecoverable append failure")
	}
	return nil
}

// putAsync assigns an LSN and enqueues one record for group commit.
func (j *Journal) putAsync(rec *record, e Entry) *Ticket {
	j.mu.Lock()
	if err := j.appendable(); err != nil {
		j.mu.Unlock()
		return ResolvedTicket(err)
	}
	j.lsn++
	rec.LSN = j.lsn
	req, err := j.enqueue(rec, e)
	if err != nil {
		// Encode failure: nothing was queued. The LSN stays burned —
		// monotonicity is all the gate needs, gaps are fine.
		j.mu.Unlock()
		return ResolvedTicket(err)
	}
	j.mu.Unlock()
	return &Ticket{ch: req.done}
}

// Put records the latest state of one stream. Success means the record's
// group commit landed in the journal (durably, under FsyncAlways);
// compaction is a separate concern — see MaybeCompact — so a full disk
// during compaction can never fail an operation that already committed.
func (j *Journal) Put(e Entry) error {
	return j.PutAsync(e).Wait()
}

// PutAsync enqueues the record and returns its commit ticket without
// waiting. Callers that write many records back to back (the
// checkpointer's dirty-stream deltas) enqueue them all and wait on the
// tickets afterwards, so the whole pass shares a handful of group
// commits instead of paying one fsync per stream.
func (j *Journal) PutAsync(e Entry) *Ticket {
	return j.putAsync(&record{Op: opPut, ID: e.ID, Env: e.Env}, e)
}

// Delete records that a stream was removed.
func (j *Journal) Delete(id string) error {
	return j.putAsync(&record{Op: opDel, ID: id}, Entry{}).Wait()
}

// Load returns the live entries, sorted by ID. Records still waiting in
// the commit queue are not included: the live set only ever reflects
// committed records.
func (j *Journal) Load() ([]Entry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, ErrClosed
	}
	return sortedEntries(j.entries), nil
}

// MaybeCompact compacts if the journal tail (summed across segments)
// has outgrown CompactAt, reporting whether it did. Callers that batch
// appends (the server's checkpointer) invoke it once per pass, outside
// their own locks — compaction rewrites the whole live set, far too much
// work to hang off an individual Put.
func (j *Journal) MaybeCompact() (bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return false, ErrClosed
	}
	if j.cfg.CompactAt < 0 || j.journalBytes <= j.cfg.CompactAt {
		return false, nil
	}
	if err := j.compactLocked(); err != nil {
		return false, err
	}
	return true, nil
}

// Compact folds the live set into a fresh checkpoint, deletes every
// segment, and starts a fresh active segment.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.compactLocked()
}

// quiesceLocked waits until the commit queue is empty and no batch I/O
// is in flight. Compaction needs this: the checkpoint it writes must
// cover exactly the committed state (j.lsn is only meaningful once every
// assigned LSN has been applied), and the segment files must not be
// swapped out from under the committer. The caller must hold j.mu.
func (j *Journal) quiesceLocked() error {
	for (len(j.pending) > 0 || j.committing) && !j.closed {
		j.idle.Wait()
	}
	if j.closed {
		return ErrClosed
	}
	return nil
}

// compactLocked writes checkpoint.ckpt.tmp (meta record + one put per
// live entry), fsyncs it, renames it over checkpoint.ckpt, fsyncs the
// directory so the rename is durable, and only then retires every
// segment and starts a fresh one. Every step is ordered so that a crash
// at any point leaves either the old checkpoint + full journal or the
// new checkpoint + (possibly stale, LSN-gated) journal.
//
// Compaction also clears the broken latch: the rejected tail the latch
// was protecting against lives in the old active segment, which is
// deleted wholesale, and the new checkpoint was written from the
// in-memory live set, which never saw the failed batch.
func (j *Journal) compactLocked() error {
	if err := j.quiesceLocked(); err != nil {
		return err
	}
	tmpPath := filepath.Join(j.cfg.Dir, checkpointTmp)
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating checkpoint temp: %w", err)
	}
	w := bufio.NewWriterSize(tmp, 1<<20)
	var written int64
	writeRec := func(rec *record) error {
		frame, err := encodeRecord(rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(frame); err != nil {
			return fmt.Errorf("store: writing checkpoint: %w", err)
		}
		written += int64(len(frame))
		return nil
	}
	err = writeRec(&record{LSN: j.lsn, Op: opCheckpoint})
	if err == nil {
		for _, e := range sortedEntries(j.entries) {
			if err = writeRec(&record{LSN: j.lsn, Op: opPut, ID: e.ID, Env: e.Env}); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("store: closing checkpoint temp: %w", cerr)
	}
	if err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(j.cfg.Dir, checkpointFile)); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("store: publishing checkpoint: %w", err)
	}
	if err := syncDir(j.cfg.Dir); err != nil {
		return err
	}
	j.ckptLSN = j.lsn
	j.ckptBytes = written
	// Start the fresh active segment before removing anything: if the
	// create fails the old journal stays fully intact, merely redundant
	// behind the new checkpoint (replay skips it via the LSN gate).
	nf, err := createSegment(j.cfg.Dir, j.nextIdx)
	if err != nil {
		return err
	}
	oldActive := j.active.path
	j.f.Close()
	for _, s := range j.retired {
		os.Remove(s.path)
	}
	os.Remove(oldActive)
	if j.cfg.Fsync != FsyncNever {
		// Removal-flush failures are deliberately not fatal: a segment
		// resurrected by a crash replays as a no-op behind the LSN gate,
		// and the next compaction retries the directory sync.
		_ = syncDir(j.cfg.Dir)
	}
	j.retired = nil
	j.active = segmentInfo{index: j.nextIdx, path: nf.Name()}
	j.nextIdx++
	j.f = nf
	j.journalBytes = 0
	j.journalRecords = 0
	j.dirty = false
	j.broken = false
	j.brokenAt = 0
	j.brokenErr = nil
	j.compactions++
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening data dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing data dir: %w", err)
	}
	return nil
}

// Stats reports the store's observable state.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Backend:          "journal",
		Dir:              j.cfg.Dir,
		Entries:          len(j.entries),
		LastLSN:          j.lsn,
		JournalBytes:     j.journalBytes,
		JournalRecords:   j.journalRecords,
		Segments:         len(j.retired) + 1,
		CheckpointBytes:  j.ckptBytes,
		Appends:          j.appends,
		Compactions:      j.compactions,
		Commits:          j.commits,
		CommitRecords:    j.commitRecs,
		CommitWaitMS:     float64(j.commitWait) / float64(time.Millisecond),
		SyncErrors:       j.syncErrors,
		RecoveredEntries: j.recovered,
		TornTailRepaired: j.tornRepaired,
		Fsync:            string(j.cfg.Fsync),
	}
}

// Close drains the commit queue, flushes, and closes the journal. The
// store is unusable after.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.idle.Broadcast()
	j.mu.Unlock()
	// Stop the committer; its shutdown path drains every record enqueued
	// before the closed latch, so no ticket is left unresolved.
	close(j.stopCommit)
	<-j.commitDone
	if j.stopSync != nil {
		close(j.stopSync)
		<-j.syncDone
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	if j.broken {
		// Last chance to drop the rejected frames before the file is
		// released; if this fails too, the next boot may replay them.
		if terr := j.f.Truncate(j.brokenAt); terr != nil {
			err = fmt.Errorf("store: closing broken journal, rejected tail not removed: %w", terr)
		}
	}
	if j.cfg.Fsync != FsyncNever {
		if serr := j.f.Sync(); err == nil {
			err = serr
		}
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

var _ Store = (*Journal)(nil)
