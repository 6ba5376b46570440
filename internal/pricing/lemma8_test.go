package pricing

import (
	"math"
	"testing"

	"datamarket/internal/linalg"
)

// TestLemma8ConservativeCutsAreHarmful reproduces the adversarial example
// of Lemma 8 / Fig. 6: an adversary pins the first half of the stream to
// the first coordinate with reserve prices equal to the middle price, then
// switches to the second coordinate. A mechanism that cuts on conservative
// feedback keeps slicing along coordinate one, exponentially inflating the
// ellipsoid along coordinate two; when the adversary switches, it must pay
// regret for a number of rounds proportional to the first phase — O(T)
// overall. The paper's mechanism (no conservative cuts) is immune.
func TestLemma8ConservativeCutsAreHarmful(t *testing.T) {
	theta := linalg.VectorOf(0.3, 0.4)
	const (
		T    = 1200
		half = T / 2
		eps  = 0.01
	)

	run := func(ablation bool) (phase2Regret float64, phase2Exploratory int) {
		opts := []Option{WithReserve(), WithThreshold(eps)}
		if ablation {
			opts = append(opts, WithConservativeCuts())
		}
		m, err := New(2, 1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		e1 := linalg.VectorOf(1, 0)
		e2 := linalg.VectorOf(0, 1)

		// Phase 1: adversary fixes x = e₁ and sets the reserve to the
		// current middle price, forcing central cuts if the mechanism is
		// willing to cut on conservative feedback.
		for i := 0; i < half; i++ {
			lo, hi := m.ValueBounds(e1)
			reserve := (lo + hi) / 2
			v := e1.Dot(theta)
			q, err := m.PostPrice(e1, reserve)
			if err != nil {
				t.Fatal(err)
			}
			if q.Decision != DecisionSkip {
				m.Observe(Sold(q.Price, v))
			}
		}

		// Phase 2: adversary switches to x = e₂ with no binding reserve.
		before := m.Counters().Exploratory
		tr := NewTracker()
		for i := 0; i < T-half; i++ {
			v := e2.Dot(theta)
			q, err := m.PostPrice(e2, math.Inf(-1))
			if err != nil {
				t.Fatal(err)
			}
			if q.Decision != DecisionSkip {
				m.Observe(Sold(q.Price, v))
			}
			tr.Record(v, math.Inf(-1), q)
		}
		return tr.CumulativeRegret(), m.Counters().Exploratory - before
	}

	ablRegret, ablExpl := run(true)
	defRegret, defExpl := run(false)

	// In exact arithmetic the gap grows without bound in T; in float64 the
	// adversarial phase eventually degrades the 2×2 shape matrix's
	// conditioning (the e₁-width underflows), which caps the blow-up.
	// A clear constant-factor separation remains the expected signature.
	if !(ablRegret > 2*defRegret+1) {
		t.Fatalf("ablation regret %v not clearly above default %v", ablRegret, defRegret)
	}
	if !(ablExpl > 2*defExpl) {
		t.Fatalf("ablation exploratory rounds %d not clearly above default %d", ablExpl, defExpl)
	}
}

// TestConservativeCutOptionActuallyCuts confirms the ablation switch is
// wired through: identical single-round feedback refines the ellipsoid
// only when the option is set.
func TestConservativeCutOptionActuallyCuts(t *testing.T) {
	x := linalg.VectorOf(1, 0)
	for _, ablation := range []bool{false, true} {
		// Force conservative pricing with a binding reserve at the middle
		// price, the Lemma 8 adversary's move: the resulting feedback is a
		// central cut if (and only if) the ablation allows it.
		opts := []Option{WithThreshold(100), WithReserve()}
		if ablation {
			opts = append(opts, WithConservativeCuts())
		}
		m, _ := New(2, 1, opts...)
		lo, hi := m.ValueBounds(x)
		q, err := m.PostPrice(x, (lo+hi)/2)
		if err != nil {
			t.Fatal(err)
		}
		if q.Decision != DecisionConservative || !q.ReserveBinding {
			t.Fatalf("quote = %+v", q)
		}
		m.Observe(false)
		cuts := m.Counters().CutsApplied
		if ablation && cuts != 1 {
			t.Fatalf("ablation applied %d cuts, want 1", cuts)
		}
		if !ablation && cuts != 0 {
			t.Fatal("default mechanism cut on conservative feedback")
		}
	}
}
