//go:build !race

package ellipsoid

import "testing"

// TestSupportCutZeroAllocs is the regression guard for the
// zero-allocation hot path: after the per-ellipsoid scratch is warm,
// Support and Cut must not allocate at all, on dense probes and on the
// 13-hot ones whose nonzero indices Support gathers into scratch.
// (Skipped under -race, whose instrumentation perturbs allocation
// counts.)
func TestSupportCutZeroAllocs(t *testing.T) {
	for _, s := range []benchShape{{16, 0}, {128, 0}, {128, 13}, {1024, 13}} {
		e, err := NewBall(s.n, 4)
		if err != nil {
			t.Fatal(err)
		}
		x := benchDirections(s, 1)[0]
		// Warm the scratch buffers; the first Support and Cut are
		// allowed their one-time allocations.
		lo, hi := e.Support(x)
		e.Cut(x, (lo+hi)/2)

		if got := testing.AllocsPerRun(200, func() {
			lo, hi := e.Support(x)
			e.Cut(x, (lo+hi)/2)
		}); got != 0 {
			t.Fatalf("%v: Support+Cut allocated %v times per round, want 0", s, got)
		}
	}
}
