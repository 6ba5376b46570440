//go:build !race

package ellipsoid

import (
	"testing"

	"datamarket/internal/randx"
)

// TestSupportCutZeroAllocs is the regression guard for the
// zero-allocation hot path: after the per-ellipsoid scratch is warm,
// Support and Cut must not allocate at all. (Skipped under -race, whose
// instrumentation perturbs allocation counts.)
func TestSupportCutZeroAllocs(t *testing.T) {
	for _, n := range []int{16, 128} {
		e, err := NewBall(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		x := randx.New(1).OnSphere(n)
		// Warm the scratch buffer; the first Cut is allowed its one-time
		// allocation.
		e.Cut(x, e.c.Dot(x))

		if got := testing.AllocsPerRun(200, func() {
			lo, hi := e.Support(x)
			e.Cut(x, (lo+hi)/2)
		}); got != 0 {
			t.Fatalf("n=%d: Support+Cut allocated %v times per round, want 0", n, got)
		}
	}
}
