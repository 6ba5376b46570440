package store

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"datamarket/internal/pricing"
)

// testEnv builds a real linear-family envelope (the store treats it as an
// opaque payload, but realistic envelopes keep the frame sizes honest).
func testEnv(t *testing.T, dim int, rounds int) *pricing.Envelope {
	t.Helper()
	p, err := pricing.NewFamilyPoster(pricing.FamilySpec{Family: pricing.FamilyLinear, Dim: dim, Horizon: 1000})
	if err != nil {
		t.Fatalf("NewFamilyPoster: %v", err)
	}
	s := pricing.NewSync(p)
	x := make([]float64, dim)
	for i := range x {
		x[i] = 1 / float64(dim)
	}
	for r := 0; r < rounds; r++ {
		if _, _, err := s.PriceRound(x, 0, 1); err != nil {
			t.Fatalf("PriceRound: %v", err)
		}
	}
	env, err := s.SnapshotEnvelope()
	if err != nil {
		t.Fatalf("SnapshotEnvelope: %v", err)
	}
	return env
}

// newestSegment returns the path of the newest numbered WAL segment —
// the one that was active when the journal last ran.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	if len(segs) == 0 || segs[len(segs)-1].index == 0 {
		t.Fatalf("no numbered segment in %s", dir)
	}
	return segs[len(segs)-1].path
}

func loadMap(t *testing.T, s Store) map[string]Entry {
	t.Helper()
	entries, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	m := make(map[string]Entry, len(entries))
	for _, e := range entries {
		m[e.ID] = e
	}
	return m
}

func TestMemStoreLifecycle(t *testing.T) {
	m := NewMem()
	if err := m.Put(Entry{ID: "a", Rev: 1, Env: testEnv(t, 2, 1)}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := m.Put(Entry{ID: "b", Rev: 3, Env: testEnv(t, 2, 2)}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := m.Delete("a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	got := loadMap(t, m)
	if len(got) != 1 || got["b"].Rev != 3 {
		t.Fatalf("live set = %v, want only b@3", got)
	}
	if st := m.Stats(); st.Backend != "mem" || st.Entries != 1 || st.Appends != 3 {
		t.Fatalf("Stats = %+v", st)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Put(Entry{ID: "c"}); err != ErrClosed {
		t.Fatalf("Put after close = %v, want ErrClosed", err)
	}
}

func TestFrameRoundTripAndCorruption(t *testing.T) {
	payloads := [][]byte{[]byte(`{"a":1}`), []byte(``), bytes.Repeat([]byte("x"), 4096)}
	var buf []byte
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	r := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range payloads {
		got, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
	}
	if _, err := readFrame(r); err == nil || err.Error() != "EOF" {
		t.Fatalf("clean end = %v, want EOF", err)
	}

	// Flip one payload byte: the CRC must catch it.
	corrupt := append([]byte(nil), buf...)
	corrupt[frameHeaderSize] ^= 0xff
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(corrupt))); err != errTorn {
		t.Fatalf("corrupt frame = %v, want errTorn", err)
	}

	// A partial final frame is torn, not a clean EOF.
	r = bufio.NewReader(bytes.NewReader(buf[:len(buf)-3]))
	var last error
	for {
		if _, last = readFrame(r); last != nil {
			break
		}
	}
	if last != errTorn {
		t.Fatalf("partial tail = %v, want errTorn", last)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	envA, envB := testEnv(t, 3, 5), testEnv(t, 2, 0)
	if err := j.Put(Entry{ID: "a", Rev: 5, Env: envA}); err != nil {
		t.Fatalf("Put a: %v", err)
	}
	if err := j.Put(Entry{ID: "b", Rev: 0, Env: envB}); err != nil {
		t.Fatalf("Put b: %v", err)
	}
	if err := j.Put(Entry{ID: "a", Rev: 7, Env: envA}); err != nil {
		t.Fatalf("Put a again: %v", err)
	}
	if err := j.Delete("b"); err != nil {
		t.Fatalf("Delete b: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	got := loadMap(t, j2)
	if len(got) != 1 {
		t.Fatalf("live set has %d entries, want 1", len(got))
	}
	e := got["a"]
	if e.Rev != 7 || !reflect.DeepEqual(e.Env, envA) {
		t.Fatalf("entry a = rev %d (env equal: %v), want rev 7 with identical envelope",
			e.Rev, reflect.DeepEqual(e.Env, envA))
	}
	st := j2.Stats()
	if st.TornTailRepaired {
		t.Fatal("clean close reported a torn tail")
	}
	if st.RecoveredEntries != 1 || st.LastLSN != 4 {
		t.Fatalf("Stats = %+v, want 1 recovered entry at LSN 4", st)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if err := j.Put(Entry{ID: "a", Rev: 1, Env: testEnv(t, 2, 3)}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a crash mid-append: garbage at the active segment's tail.
	path := newestSegment(t, dir)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatalf("append garbage: %v", err)
	}
	f.Close()

	j2, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if st := j2.Stats(); !st.TornTailRepaired {
		t.Fatalf("Stats = %+v, want TornTailRepaired", st)
	}
	if got := loadMap(t, j2); len(got) != 1 || got["a"].Rev != 1 {
		t.Fatalf("live set = %v, want a@1", got)
	}
	// The tail was truncated, so appends land on a clean boundary.
	if err := j2.Put(Entry{ID: "b", Rev: 2, Env: testEnv(t, 2, 0)}); err != nil {
		t.Fatalf("Put after repair: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j3, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer j3.Close()
	if st := j3.Stats(); st.TornTailRepaired {
		t.Fatal("repaired journal still reports a torn tail")
	}
	if got := loadMap(t, j3); len(got) != 2 {
		t.Fatalf("live set has %d entries, want 2", len(got))
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := j.Put(Entry{ID: id, Rev: 1, Env: testEnv(t, 2, 1)}); err != nil {
			t.Fatalf("Put %s: %v", id, err)
		}
	}
	if err := j.Delete("c"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := j.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := j.Stats()
	if st.Compactions != 1 || st.JournalBytes != 0 || st.JournalRecords != 0 || st.CheckpointBytes == 0 {
		t.Fatalf("post-compact Stats = %+v", st)
	}
	// Post-compaction appends replay on top of the checkpoint.
	if err := j.Put(Entry{ID: "d", Rev: 9, Env: testEnv(t, 2, 2)}); err != nil {
		t.Fatalf("Put d: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	got := loadMap(t, j2)
	if len(got) != 3 || got["d"].Rev != 9 {
		t.Fatalf("live set = %v, want a, b, d@9", got)
	}
}

// TestJournalLSNGateSkipsStaleRecords simulates the crash window between
// the checkpoint rename and the journal reset: stale journal records
// whose LSN the checkpoint already covers must not regress the state.
func TestJournalLSNGateSkipsStaleRecords(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if err := j.Put(Entry{ID: "a", Rev: 1, Env: testEnv(t, 2, 1)}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	stalePath := newestSegment(t, dir)
	stale, err := os.ReadFile(stalePath)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}

	j, err = OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := j.Put(Entry{ID: "a", Rev: 2, Env: testEnv(t, 2, 4)}); err != nil {
		t.Fatalf("Put rev 2: %v", err)
	}
	if err := j.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// "Lose" the segment removal: resurrect the pre-compaction segment
	// whose record (a@rev1, LSN 1) is covered by the checkpoint (LSN 2).
	// It comes back as a retired segment behind the fresh active one.
	if err := os.WriteFile(stalePath, stale, 0o644); err != nil {
		t.Fatalf("restore stale segment: %v", err)
	}
	j2, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with stale journal: %v", err)
	}
	defer j2.Close()
	if got := loadMap(t, j2); got["a"].Rev != 2 {
		t.Fatalf("entry a = rev %d, want checkpointed rev 2 (stale journal record must be LSN-gated)", got["a"].Rev)
	}
}

func TestJournalMaybeCompact(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever, CompactAt: 1})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	// Below threshold: a no-op.
	if compacted, err := j.MaybeCompact(); err != nil || compacted {
		t.Fatalf("MaybeCompact on empty journal = %v, %v", compacted, err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Put(Entry{ID: "s", Rev: uint64(i), Env: testEnv(t, 2, i)}); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if compacted, err := j.MaybeCompact(); err != nil || !compacted {
		t.Fatalf("MaybeCompact past threshold = %v, %v, want compaction", compacted, err)
	}
	if st := j.Stats(); st.Compactions != 1 || st.JournalBytes != 0 {
		t.Fatalf("post-compact Stats = %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if got := loadMap(t, j2); len(got) != 1 || got["s"].Rev != 3 {
		t.Fatalf("live set = %v, want s@3", got)
	}
}

// TestJournalBrokenAfterUnrecoverableAppend: when an append fails and
// the rollback cannot restore the last good offset, the journal refuses
// further appends instead of acknowledging records a replay would
// silently discard behind the torn frame.
func TestJournalBrokenAfterUnrecoverableAppend(t *testing.T) {
	j, err := OpenJournal(JournalConfig{Dir: t.TempDir(), Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if err := j.Put(Entry{ID: "a", Rev: 1, Env: testEnv(t, 2, 1)}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Sabotage the file descriptor: the next write *and* the rollback
	// truncate both fail.
	j.f.Close()
	if err := j.Put(Entry{ID: "b", Rev: 1, Env: testEnv(t, 2, 0)}); err == nil {
		t.Fatal("Put succeeded on a closed journal file")
	}
	if err := j.Put(Entry{ID: "c", Rev: 1, Env: testEnv(t, 2, 0)}); err == nil {
		t.Fatal("journal accepted an append after an unrecoverable failure")
	}
	// Compaction replaces every segment file wholesale, so it clears the
	// latch: the rejected tail is gone and the checkpoint was written
	// from the in-memory live set, which never saw the failed batch.
	if err := j.Compact(); err != nil {
		t.Fatalf("Compact on broken journal: %v", err)
	}
	if err := j.Put(Entry{ID: "d", Rev: 1, Env: testEnv(t, 2, 0)}); err != nil {
		t.Fatalf("Put after compaction cleared the latch: %v", err)
	}
	got := loadMap(t, j)
	if _, leaked := got["b"]; len(got) != 2 || leaked {
		t.Fatalf("live set = %v, want a and d only", got)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestJournalSegmentRotation: a tiny SegmentSize forces a rotation after
// every commit; the record stream must survive replay across segment
// boundaries and compaction must collapse the chain to one fresh segment.
func TestJournalSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever, SegmentSize: 1})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	for i, id := range []string{"a", "b", "c", "a"} {
		if err := j.Put(Entry{ID: id, Rev: uint64(i + 1), Env: testEnv(t, 2, i)}); err != nil {
			t.Fatalf("Put %s: %v", id, err)
		}
	}
	if st := j.Stats(); st.Segments != 5 {
		t.Fatalf("Segments = %d after 4 rotating commits, want 5 (4 retired + active)", st.Segments)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever, SegmentSize: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got := loadMap(t, j2)
	if len(got) != 3 || got["a"].Rev != 4 {
		t.Fatalf("live set = %v, want a@4, b@2, c@3", got)
	}
	st := j2.Stats()
	if st.Segments != 5 || st.LastLSN != 4 {
		t.Fatalf("post-replay Stats = %+v, want 5 segments at LSN 4", st)
	}
	if err := j2.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st := j2.Stats(); st.Segments != 1 || st.JournalBytes != 0 {
		t.Fatalf("post-compact Stats = %+v, want a single fresh segment", st)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	if len(segs) != 1 || segs[0].index != 6 {
		t.Fatalf("on-disk segments = %v, want only the fresh index-6 segment", segs)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestJournalCrashMidRotation covers the crash windows around segment
// rotation: an empty just-created segment, a torn tail in the newest
// segment (repaired), and a torn frame in a retired segment (corruption —
// the open must fail rather than silently drop records behind the hole).
func TestJournalCrashMidRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever, SegmentSize: 1})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	for i, id := range []string{"a", "b", "c"} {
		if err := j.Put(Entry{ID: id, Rev: uint64(i + 1), Env: testEnv(t, 2, i)}); err != nil {
			t.Fatalf("Put %s: %v", id, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Crash between creating the next segment and the first append to it:
	// the newest segment is empty, which replay must tolerate.
	if f, err := createSegment(dir, 99); err != nil {
		t.Fatalf("createSegment: %v", err)
	} else {
		f.Close()
	}
	j2, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever, SegmentSize: 1})
	if err != nil {
		t.Fatalf("reopen with empty newest segment: %v", err)
	}
	if st := j2.Stats(); st.TornTailRepaired {
		t.Fatal("empty newest segment misreported as torn")
	}
	// Put lands in the empty newest segment, which became active.
	if err := j2.Put(Entry{ID: "d", Rev: 4, Env: testEnv(t, 2, 0)}); err != nil {
		t.Fatalf("Put after empty-segment recovery: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Crash mid-append after the rotation: torn tail in the newest
	// segment is repaired...
	tornPath := newestSegment(t, dir)
	if err := appendGarbage(tornPath); err != nil {
		t.Fatalf("append garbage: %v", err)
	}
	j3, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("reopen with torn newest segment: %v", err)
	}
	if st := j3.Stats(); !st.TornTailRepaired {
		t.Fatalf("Stats = %+v, want TornTailRepaired", st)
	}
	if got := loadMap(t, j3); len(got) != 4 || got["d"].Rev != 4 {
		t.Fatalf("live set = %v, want a, b, c, d@4", got)
	}
	if err := j3.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// ...but the same garbage in a retired segment is corruption.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	if err := appendGarbage(segs[0].path); err != nil {
		t.Fatalf("corrupt retired segment: %v", err)
	}
	if _, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever}); err == nil {
		t.Fatal("open succeeded with a torn frame in a retired segment")
	}
}

// appendGarbage writes a partial frame (a plausible crash artifact) at
// the end of a segment file.
func appendGarbage(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestJournalDeltaSupersession: checkpoint-delta replay ordering. A
// stale delta for a stream sits in an older segment; later records for
// the same stream (higher LSN, newer segments) must win on replay, and a
// deletion must not be resurrected by any earlier delta.
func TestJournalDeltaSupersession(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever, SegmentSize: 1})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	// Each op lands in its own segment (SegmentSize: 1 rotates per commit).
	steps := []func() error{
		func() error { return j.Put(Entry{ID: "a", Rev: 1, Env: testEnv(t, 2, 1)}) },
		func() error { return j.Put(Entry{ID: "b", Rev: 1, Env: testEnv(t, 2, 1)}) },
		func() error { return j.Put(Entry{ID: "a", Rev: 2, Env: testEnv(t, 2, 2)}) },
		func() error { return j.Delete("b") },
		func() error { return j.Put(Entry{ID: "a", Rev: 3, Env: testEnv(t, 2, 3)}) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got := loadMap(t, j2)
	if len(got) != 1 || got["a"].Rev != 3 {
		t.Fatalf("live set = %v, want only a@3 (stale deltas superseded, b not resurrected)", got)
	}
	// Compaction folds the surviving deltas into the base checkpoint; the
	// folded state must match.
	if err := j2.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j3, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer j3.Close()
	if got := loadMap(t, j3); len(got) != 1 || got["a"].Rev != 3 {
		t.Fatalf("post-compaction live set = %v, want only a@3", got)
	}
}

// TestJournalGroupCommitSharesFsyncs: concurrent appenders under
// FsyncAlways must land in shared batches — far fewer commits (fsyncs)
// than appends — without losing a record.
func TestJournalGroupCommitSharesFsyncs(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	const workers, perWorker = 16, 8
	env := testEnv(t, 2, 1)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perWorker; i++ {
				if err := j.Put(Entry{ID: fmt.Sprintf("s%02d", w), Rev: uint64(i), Env: env}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent Put: %v", err)
	}
	st := j.Stats()
	if st.Appends != workers*perWorker || st.CommitRecords != st.Appends {
		t.Fatalf("Stats = %+v, want %d appends all carried by commits", st, workers*perWorker)
	}
	if st.Commits == 0 || st.Commits >= st.Appends {
		t.Fatalf("Commits = %d for %d appends: group commit did not batch", st.Commits, st.Appends)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	got := loadMap(t, j2)
	if len(got) != workers {
		t.Fatalf("live set has %d entries, want %d", len(got), workers)
	}
	for w := 0; w < workers; w++ {
		if got[fmt.Sprintf("s%02d", w)].Rev != perWorker {
			t.Fatalf("stream s%02d = %+v, want rev %d", w, got[fmt.Sprintf("s%02d", w)], perWorker)
		}
	}
}

// TestJournalPutAsyncTickets: the asynchronous enqueue path. Tickets
// resolve when the shared commit lands, Wait is idempotent, Close drains
// every enqueued record before returning, and a closed journal resolves
// tickets with ErrClosed.
func TestJournalPutAsyncTickets(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	var tickets []*Ticket
	for i := 1; i <= 5; i++ {
		tickets = append(tickets, j.PutAsync(Entry{ID: "a", Rev: uint64(i), Env: testEnv(t, 2, i)}))
	}
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d second Wait: %v", i, err)
		}
	}
	if got := loadMap(t, j); len(got) != 1 || got["a"].Rev != 5 {
		t.Fatalf("live set = %v, want a@5", got)
	}
	// Records enqueued but not yet waited on are drained by Close.
	drained := j.PutAsync(Entry{ID: "a", Rev: 6, Env: testEnv(t, 2, 0)})
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := drained.Wait(); err != nil {
		t.Fatalf("ticket enqueued before Close: %v", err)
	}
	if err := j.PutAsync(Entry{ID: "a", Rev: 7, Env: testEnv(t, 2, 0)}).Wait(); err != ErrClosed {
		t.Fatalf("PutAsync after Close = %v, want ErrClosed", err)
	}
	j2, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if got := loadMap(t, j2); got["a"].Rev != 6 {
		t.Fatalf("live set = %v, want the drained a@6", got)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{
		"": FsyncInterval, "always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever,
	} {
		got, err := ParseFsyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %q, %v", s, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := OpenJournal(JournalConfig{Dir: t.TempDir(), Fsync: "sometimes"}); err == nil {
		t.Fatal("OpenJournal accepted unknown fsync policy")
	}
	if _, err := OpenJournal(JournalConfig{}); err == nil {
		t.Fatal("OpenJournal accepted empty dir")
	}
}
