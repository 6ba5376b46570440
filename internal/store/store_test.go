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

// rounds reports how many rounds the entry's linear envelope had priced
// — testEnv's rounds argument, which the tests use to tell versions of
// one stream apart.
func rounds(e Entry) int {
	if e.Env == nil || e.Env.Linear == nil {
		return -1
	}
	return e.Env.Linear.Counters.Rounds
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
	if err := m.Put(Entry{ID: "a", Env: testEnv(t, 2, 1)}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := m.Put(Entry{ID: "b", Env: testEnv(t, 2, 2)}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := m.Delete("a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	got := loadMap(t, m)
	if len(got) != 1 || rounds(got["b"]) != 2 {
		t.Fatalf("live set = %v, want only b@2", got)
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
	envA, envB, envA2 := testEnv(t, 3, 5), testEnv(t, 2, 0), testEnv(t, 3, 7)
	if err := j.Put(Entry{ID: "a", Env: envA}); err != nil {
		t.Fatalf("Put a: %v", err)
	}
	if err := j.Put(Entry{ID: "b", Env: envB}); err != nil {
		t.Fatalf("Put b: %v", err)
	}
	if err := j.Put(Entry{ID: "a", Env: envA2}); err != nil {
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
	if rounds(e) != 7 || !reflect.DeepEqual(e.Env, envA2) {
		t.Fatalf("entry a = %d rounds (env equal: %v), want the second put's identical envelope",
			rounds(e), reflect.DeepEqual(e.Env, envA2))
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
	if err := j.Put(Entry{ID: "a", Env: testEnv(t, 2, 3)}); err != nil {
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
	if got := loadMap(t, j2); len(got) != 1 || rounds(got["a"]) != 3 {
		t.Fatalf("live set = %v, want a@3", got)
	}
	// The tail was truncated, so appends land on a clean boundary.
	if err := j2.Put(Entry{ID: "b", Env: testEnv(t, 2, 0)}); err != nil {
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
		if err := j.Put(Entry{ID: id, Env: testEnv(t, 2, 1)}); err != nil {
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
	if err := j.Put(Entry{ID: "d", Env: testEnv(t, 2, 2)}); err != nil {
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
	if len(got) != 3 || rounds(got["d"]) != 2 {
		t.Fatalf("live set = %v, want a, b, d@2", got)
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
	if err := j.Put(Entry{ID: "a", Env: testEnv(t, 2, 1)}); err != nil {
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
	if err := j.Put(Entry{ID: "a", Env: testEnv(t, 2, 4)}); err != nil {
		t.Fatalf("Put a@4: %v", err)
	}
	if err := j.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// "Lose" the segment removal: resurrect the pre-compaction segment
	// whose record (a@1, LSN 1) is covered by the checkpoint (LSN 2).
	// It comes back as a retired segment behind the fresh active one.
	if err := os.WriteFile(stalePath, stale, 0o644); err != nil {
		t.Fatalf("restore stale segment: %v", err)
	}
	j2, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with stale journal: %v", err)
	}
	defer j2.Close()
	if got := loadMap(t, j2); rounds(got["a"]) != 4 {
		t.Fatalf("entry a = %d rounds, want the checkpointed a@4 (stale journal record must be LSN-gated)", rounds(got["a"]))
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
		if err := j.Put(Entry{ID: "s", Env: testEnv(t, 2, i)}); err != nil {
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
	if got := loadMap(t, j2); len(got) != 1 || rounds(got["s"]) != 3 {
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
	if err := j.Put(Entry{ID: "a", Env: testEnv(t, 2, 1)}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Sabotage the file descriptor: the next write *and* the rollback
	// truncate both fail.
	j.f.Close()
	if err := j.Put(Entry{ID: "b", Env: testEnv(t, 2, 0)}); err == nil {
		t.Fatal("Put succeeded on a closed journal file")
	}
	if err := j.Put(Entry{ID: "c", Env: testEnv(t, 2, 0)}); err == nil {
		t.Fatal("journal accepted an append after an unrecoverable failure")
	}
	// Compaction replaces every segment file wholesale, so it clears the
	// latch: the rejected tail is gone and the checkpoint was written
	// from the in-memory live set, which never saw the failed batch.
	if err := j.Compact(); err != nil {
		t.Fatalf("Compact on broken journal: %v", err)
	}
	if err := j.Put(Entry{ID: "d", Env: testEnv(t, 2, 0)}); err != nil {
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

// openSegmented runs each op in a segment of its own, the layout that
// builds which rotated segments by size left behind (one rotation per
// commit): after each op it closes the journal and creates the next
// segment, which the reopen makes the active one. It returns the journal
// reopened on the last, still empty segment.
func openSegmented(t *testing.T, dir string, ops ...func(j *Journal) error) *Journal {
	t.Helper()
	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	for i, op := range ops {
		if err := op(j); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		segs, err := listSegments(dir)
		if err != nil {
			t.Fatalf("listSegments: %v", err)
		}
		f, err := createSegment(dir, segs[len(segs)-1].index+1)
		if err != nil {
			t.Fatalf("createSegment: %v", err)
		}
		f.Close()
		if j, err = OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever}); err != nil {
			t.Fatalf("reopen: %v", err)
		}
	}
	return j
}

// put returns an openSegmented op that records id at the given rounds.
func put(t *testing.T, id string, r int) func(j *Journal) error {
	env := testEnv(t, 2, r)
	return func(j *Journal) error { return j.Put(Entry{ID: id, Env: env}) }
}

// TestJournalSegmentRotation: a directory with one record per segment
// must replay across segment boundaries, appends must go to the newest
// segment without opening another, and compaction must collapse the
// chain to one fresh segment.
func TestJournalSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j := openSegmented(t, dir, put(t, "a", 0), put(t, "b", 1), put(t, "c", 2), put(t, "a", 3))
	if st := j.Stats(); st.Segments != 5 {
		t.Fatalf("Segments = %d after 4 one-commit segments, want 5 (4 retired + active)", st.Segments)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got := loadMap(t, j2)
	if len(got) != 3 || rounds(got["a"]) != 3 {
		t.Fatalf("live set = %v, want a@3, b@1, c@2", got)
	}
	st := j2.Stats()
	if st.Segments != 5 || st.LastLSN != 4 {
		t.Fatalf("post-replay Stats = %+v, want 5 segments at LSN 4", st)
	}
	for i := 0; i < 3; i++ {
		if err := j2.Put(Entry{ID: "e", Env: testEnv(t, 2, i)}); err != nil {
			t.Fatalf("Put e: %v", err)
		}
	}
	if st := j2.Stats(); st.Segments != 5 {
		t.Fatalf("Segments = %d after 3 more commits, want the same 5", st.Segments)
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

// TestJournalCrashMidRotation covers the crash windows a directory of
// several segments can show, whether an older build's rotation or a
// crash mid-compaction left it: an empty just-created segment, a torn
// tail in the newest segment (repaired), and a torn frame in a retired
// segment (corruption — the open must fail rather than silently drop
// records behind the hole).
func TestJournalCrashMidRotation(t *testing.T) {
	dir := t.TempDir()
	j := openSegmented(t, dir, put(t, "a", 0), put(t, "b", 1), put(t, "c", 2))
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
	j2, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("reopen with empty newest segment: %v", err)
	}
	if st := j2.Stats(); st.TornTailRepaired {
		t.Fatal("empty newest segment misreported as torn")
	}
	// Put lands in the empty newest segment, which became active.
	if err := j2.Put(Entry{ID: "d", Env: testEnv(t, 2, 4)}); err != nil {
		t.Fatalf("Put after empty-segment recovery: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Crash mid-append: torn tail in the newest segment is repaired...
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
	if got := loadMap(t, j3); len(got) != 4 || rounds(got["d"]) != 4 {
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
	// Each op lands in its own segment.
	j := openSegmented(t, dir,
		put(t, "a", 1),
		put(t, "b", 1),
		put(t, "a", 2),
		func(j *Journal) error { return j.Delete("b") },
		put(t, "a", 3),
	)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got := loadMap(t, j2)
	if len(got) != 1 || rounds(got["a"]) != 3 {
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
	if got := loadMap(t, j3); len(got) != 1 || rounds(got["a"]) != 3 {
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
	envs := make([]*pricing.Envelope, perWorker+1)
	for i := 1; i <= perWorker; i++ {
		envs[i] = testEnv(t, 2, i)
	}
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perWorker; i++ {
				if err := j.Put(Entry{ID: fmt.Sprintf("s%02d", w), Env: envs[i]}); err != nil {
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
		if e := got[fmt.Sprintf("s%02d", w)]; rounds(e) != perWorker {
			t.Fatalf("stream s%02d = %d rounds, want its last put's %d", w, rounds(e), perWorker)
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
		tickets = append(tickets, j.PutAsync(Entry{ID: "a", Env: testEnv(t, 2, i)}))
	}
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d second Wait: %v", i, err)
		}
	}
	if got := loadMap(t, j); len(got) != 1 || rounds(got["a"]) != 5 {
		t.Fatalf("live set = %v, want a@5", got)
	}
	// Records enqueued but not yet waited on are drained by Close.
	drained := j.PutAsync(Entry{ID: "a", Env: testEnv(t, 2, 6)})
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := drained.Wait(); err != nil {
		t.Fatalf("ticket enqueued before Close: %v", err)
	}
	if err := j.PutAsync(Entry{ID: "a", Env: testEnv(t, 2, 7)}).Wait(); err != ErrClosed {
		t.Fatalf("PutAsync after Close = %v, want ErrClosed", err)
	}
	j2, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if got := loadMap(t, j2); rounds(got["a"]) != 6 {
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
