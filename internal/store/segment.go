package store

// Segment management for the journal backend. The WAL lives in numbered
// segment files, wal-00000001.seg, wal-00000002.seg, …; the
// highest-numbered segment is active and takes every append until a
// compaction starts the next one and deletes the rest. A directory holds
// more than one segment only if a build that rotated segments by size
// wrote it, or if a crash hit a compaction between creating the fresh
// segment and deleting the old ones. The lower-numbered segments are
// retired: complete, replayed oldest-first, never written again, and
// deleted by the next compaction. Segment indexes are monotonic for the
// lifetime of a data directory and never reused, so a crash can never
// leave two generations of records under one name.
//
// Torn-tail repair is a per-segment affair with a strict rule: only the
// newest segment may carry a torn tail, because only the newest segment
// was ever open for appending when a crash could hit. A torn or corrupt
// frame in any retired segment means real corruption (bit rot, manual
// truncation) and fails the open loudly instead of silently dropping
// the records behind it.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	segmentPrefix = "wal-"
	segmentSuffix = ".seg"
	// legacyJournalFile is the pre-segmentation single-file WAL. An old
	// data directory is migrated transparently: the file replays as the
	// oldest (index-0, retired) segment and the first compaction deletes
	// it like any other retired segment.
	legacyJournalFile = "journal.wal"
)

// segmentName formats the on-disk name of segment idx.
func segmentName(idx uint64) string {
	return fmt.Sprintf("%s%08d%s", segmentPrefix, idx, segmentSuffix)
}

// segmentInfo describes one on-disk WAL segment.
type segmentInfo struct {
	index uint64
	path  string
	// bytes is the segment's valid-frame size: for retired segments the
	// file size, for the active segment the end of the last whole frame
	// (what replay found, plus every committed batch since).
	bytes int64
	// records counts the frames replay found plus those committed since.
	records int
}

// listSegments returns the data directory's segments sorted by index,
// with a legacy single-file journal (if present) first as index 0.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing data dir: %w", err)
	}
	var segs []segmentInfo
	for _, ent := range entries {
		name := ent.Name()
		if name == legacyJournalFile {
			segs = append(segs, segmentInfo{index: 0, path: filepath.Join(dir, name)})
			continue
		}
		if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		numPart := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
		idx, err := strconv.ParseUint(numPart, 10, 64)
		if err != nil || idx == 0 {
			return nil, fmt.Errorf("store: unrecognized segment file %q in %s", name, dir)
		}
		segs = append(segs, segmentInfo{index: idx, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	for i := 1; i < len(segs); i++ {
		if segs[i].index == segs[i-1].index {
			return nil, fmt.Errorf("store: duplicate segment index %d in %s", segs[i].index, dir)
		}
	}
	return segs, nil
}

// createSegment creates (exclusively) a fresh segment file for idx.
func createSegment(dir string, idx uint64) (*os.File, error) {
	path := filepath.Join(dir, segmentName(idx))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating segment %s: %w", path, err)
	}
	return f, nil
}
