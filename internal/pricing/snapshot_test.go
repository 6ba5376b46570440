package pricing

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"datamarket/internal/linalg"
)

// TestRestoreRejectsNonFinite guards the snapshot decode path against
// NaN/Inf entries that survive hand-edited JSON (e.g. a "1e999" literal
// decoding to +Inf) and would otherwise poison every Support call.
func TestRestoreRejectsNonFinite(t *testing.T) {
	m, err := New(2, 1, WithUncertainty(0.01), WithThreshold(0.1))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		corrupt func(s *Snapshot)
		wantMsg string
	}{
		{"shape NaN", func(s *Snapshot) { s.Shape[0] = math.NaN() }, "shape entry 0"},
		{"shape +Inf", func(s *Snapshot) { s.Shape[3] = math.Inf(1) }, "shape entry 3"},
		{"shape -Inf", func(s *Snapshot) { s.Shape[2] = math.Inf(-1) }, "shape entry 2"},
		{"center NaN", func(s *Snapshot) { s.Center[1] = math.NaN() }, "center entry 1"},
		{"center Inf", func(s *Snapshot) { s.Center[0] = math.Inf(1) }, "center entry 0"},
		{"threshold NaN", func(s *Snapshot) { s.Threshold = math.NaN() }, "threshold"},
		{"threshold Inf", func(s *Snapshot) { s.Threshold = math.Inf(1) }, "threshold"},
		{"delta NaN", func(s *Snapshot) { s.Delta = math.NaN() }, "delta"},
		{"delta Inf", func(s *Snapshot) { s.Delta = math.Inf(1) }, "delta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := *snap
			bad.Shape = append([]float64(nil), snap.Shape...)
			bad.Center = append([]float64(nil), snap.Center...)
			tc.corrupt(&bad)
			_, err := Restore(&bad)
			if err == nil {
				t.Fatalf("Restore accepted non-finite snapshot (%s)", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}

	// The untouched snapshot still restores, and the restored mechanism
	// prices.
	restored, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.PostPrice(linalg.VectorOf(1, 0), 0); err != nil {
		t.Fatal(err)
	}
}

var sinkSnapshot *Snapshot

// TestSnapshotAllocs pins that Snapshot copies the n×n shape matrix
// once: the mirrored Shape() copy becomes the snapshot's own storage
// rather than being copied again into a second slice.
func TestSnapshotAllocs(t *testing.T) {
	const n, calls = 128, 20
	m, err := New(n, 1, WithThreshold(0.05))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sinkSnapshot = snap
	}
	runtime.ReadMemStats(&after)
	shape := uint64(8 * n * n)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= shape*5/4 {
		t.Fatalf("Snapshot allocates %d B per call at n=%d, want < 1.25 × the %d B shape matrix", per, n, shape)
	}
}

var sinkMechanism *Mechanism

// TestRestoreAllocs pins that Restore allocates the n×n shape matrix
// twice: the fresh copy the knowledge set takes over, and the Cholesky
// factor that validates it.
func TestRestoreAllocs(t *testing.T) {
	const n, calls = 128, 20
	m, err := New(n, 1, WithThreshold(0.05))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		r, err := Restore(snap)
		if err != nil {
			t.Fatal(err)
		}
		sinkMechanism = r
	}
	runtime.ReadMemStats(&after)
	shape := uint64(8 * n * n)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= shape*9/4 {
		t.Fatalf("Restore allocates %d B per call at n=%d, want < 2.25 × the %d B shape matrix", per, n, shape)
	}
}
