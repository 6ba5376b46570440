package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenDir is a data directory written by the journal of commit
// 2942252, which rotated WAL segments by size (here after every commit)
// and stored a revision in every put record: a checkpoint (a, b, c), four one-record segments (a, delete b,
// d, a), and a newest segment holding e and c followed by the first half
// of a frame for f — a crash mid-append. goldenLive is the live set that
// build recovered from it.
const (
	goldenDir  = "testdata/rotated-datadir"
	goldenLive = "testdata/rotated-datadir.live.json"
)

// TestJournalRecoversGoldenDataDir: the journal must recover exactly the
// older build's live set from its directory, repair the torn tail, drop
// the records' revisions, and append after recovery without opening
// another segment.
func TestJournalRecoversGoldenDataDir(t *testing.T) {
	dir := t.TempDir()
	names, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, de := range names {
		b, err := os.ReadFile(filepath.Join(goldenDir, de.Name()))
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dir, de.Name()), b, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}
	raw, err := os.ReadFile(goldenLive)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var want []Entry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decoding %s: %v", goldenLive, err)
	}

	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	st := j.Stats()
	if !st.TornTailRepaired || st.RecoveredEntries != len(want) || st.Segments != 5 || st.LastLSN != 9 {
		t.Fatalf("Stats = %+v, want a repaired torn tail, %d entries, 5 segments, LSN 9", st, len(want))
	}
	got, err := j.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live set = %v, want %v", got, want)
	}
	for _, id := range []string{"a", "c"} {
		if err := j.Put(Entry{ID: id, Env: testEnv(t, 2, 10)}); err != nil {
			t.Fatalf("Put %s: %v", id, err)
		}
	}
	if st := j.Stats(); st.Segments != 5 {
		t.Fatalf("Segments = %d after appends, want the same 5", st.Segments)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if st := j2.Stats(); st.TornTailRepaired {
		t.Fatal("repaired directory still reports a torn tail")
	}
	live := loadMap(t, j2)
	if len(live) != len(want) || rounds(live["a"]) != 10 || rounds(live["c"]) != 10 {
		t.Fatalf("live set after appends = %v, want a@10, c@10, d, e", live)
	}
	for _, w := range want {
		if w.ID != "a" && w.ID != "c" && !reflect.DeepEqual(live[w.ID], w) {
			t.Fatalf("entry %s = %v, want %v", w.ID, live[w.ID], w)
		}
	}
}
