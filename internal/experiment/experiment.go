// Package experiment reproduces every table and figure of the paper's
// evaluation section (§V): the noisy linear query application over a
// MovieLens-style market (Fig. 4, Table I, Fig. 5(a)), the accommodation
// rental application under the log-linear model (Fig. 5(b)), the
// impression pricing application under the logistic model (Fig. 5(c)),
// the §V-D latency/memory overheads, and the appendix ablations (Lemma 8,
// Theorem 3). README's "Paper experiments" indexes each figure's
// experiment function and pricebench run.
//
// The experiments price as brokerd does: every mechanism a hosted family
// covers comes from pricing.NewFamilyPoster, every valuation round of a
// Poster is pricing.PriceRound, and the §V-A consumers are drawn by
// market.ConsumerModel. Only Lemma 8's ablation (WithConservativeCuts),
// Theorem 3's scalar interval mechanism and the risk-averse baseline are
// built outside the family factory.
package experiment

import (
	"fmt"
	"math"

	"datamarket/internal/linalg"
	"datamarket/internal/pricing"
)

// Version selects one of the paper's mechanism configurations.
type Version int

const (
	// VersionPure is Algorithm 1*: no reserve, no uncertainty.
	VersionPure Version = iota
	// VersionUncertainty is Algorithm 2*: uncertainty buffer, no reserve.
	VersionUncertainty
	// VersionReserve is Algorithm 1: reserve price constraint.
	VersionReserve
	// VersionReserveUncertainty is Algorithm 2: reserve and uncertainty.
	VersionReserveUncertainty
	// VersionRiskAverse is the baseline that posts the reserve each round.
	VersionRiskAverse
)

// String renders the version label used in the paper's legends.
func (v Version) String() string {
	switch v {
	case VersionPure:
		return "Pure Version"
	case VersionUncertainty:
		return "With Uncertainty"
	case VersionReserve:
		return "With Reserve Price"
	case VersionReserveUncertainty:
		return "With Reserve Price and Uncertainty"
	case VersionRiskAverse:
		return "Risk-Averse Baseline"
	default:
		return fmt.Sprintf("Version(%d)", int(v))
	}
}

// UsesReserve reports whether the version honours reserve prices.
func (v Version) UsesReserve() bool {
	return v == VersionReserve || v == VersionReserveUncertainty || v == VersionRiskAverse
}

// UsesUncertainty reports whether the version carries the buffer δ.
func (v Version) UsesUncertainty() bool {
	return v == VersionUncertainty || v == VersionReserveUncertainty
}

// AllVersions lists the four mechanism configurations of Fig. 4.
var AllVersions = []Version{
	VersionPure, VersionUncertainty, VersionReserve, VersionReserveUncertainty,
}

// Series is a measured curve: cumulative regret and regret ratio sampled
// at checkpoints, plus end-of-run summaries.
type Series struct {
	Label       string
	N           int
	T           int
	Checkpoints []int
	CumRegret   []float64
	RegretRatio []float64

	FinalRegret float64
	FinalRatio  float64
	Table       pricing.TableRow
	Counters    pricing.Counters
}

// Checkpoints returns ~pointsPerDecade log-spaced round indices in [1, T],
// always including T — the x-axes of Fig. 4 and Fig. 5.
func Checkpoints(T, pointsPerDecade int) []int {
	if T < 1 {
		return nil
	}
	if pointsPerDecade < 1 {
		pointsPerDecade = 1
	}
	seen := map[int]bool{}
	var out []int
	add := func(t int) {
		if t >= 1 && t <= T && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	add(1)
	// Log-spaced grid.
	for decade := 1; ; decade *= 10 {
		if decade > T {
			break
		}
		for k := 1; k <= pointsPerDecade; k++ {
			t := int(float64(decade) * math.Pow(10, float64(k)/float64(pointsPerDecade)))
			add(t)
		}
	}
	add(T)
	// `seen` deduplicates; the grid is generated in increasing order
	// except possibly the final cap, so one bubble pass suffices.
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			out[i], out[i-1] = out[i-1], out[i]
		}
	}
	return out
}

// runCurve prices T valuation rounds through mech, or through the
// risk-averse baseline when mech is nil, round t drawn by draw(t). It
// returns the series labelled label: the cumulative regret and regret
// ratio at each checkpoint in cps (a log-spaced grid when cps is empty),
// the end-of-run results, and mech's counters (none for the baseline).
func runCurve(label string, n, T int, cps []int, mech pricing.FamilyPoster,
	draw func(t int) (x linalg.Vector, reserve, value float64, err error)) (*Series, error) {
	var poster pricing.Poster = pricing.NewRiskAverse()
	if mech != nil {
		poster = mech
	}
	if len(cps) == 0 {
		cps = Checkpoints(T, 5)
	}
	s := &Series{Label: label, N: n, T: T, Checkpoints: cps}
	tracker := pricing.NewTracker()
	next := 0
	for t := 1; t <= T; t++ {
		x, reserve, v, err := draw(t)
		if err != nil {
			return nil, err
		}
		if _, _, err := pricing.PriceRound(poster, tracker, x, reserve, v); err != nil {
			return nil, fmt.Errorf("experiment: %s, round %d: %w", label, t, err)
		}
		for next < len(cps) && cps[next] == t {
			s.CumRegret = append(s.CumRegret, tracker.CumulativeRegret())
			s.RegretRatio = append(s.RegretRatio, tracker.RegretRatio())
			next++
		}
	}
	s.FinalRegret = tracker.CumulativeRegret()
	s.FinalRatio = tracker.RegretRatio()
	s.Table = tracker.Table()
	if mech != nil {
		s.Counters = mech.Counters()
	}
	return s, nil
}

// Cell is one (n, T) configuration of the noisy linear query
// application: a panel of Fig. 4 and a row of Table I.
type Cell struct {
	N int
	T int
}

// Owners returns the size of the cell's owner population, max(4n, 100).
func (c Cell) Owners() int { return max(4*c.N, 100) }

// Grid returns the cells of Fig. 4 and Table I, each paper horizon T run
// at Horizon(T, full).
func Grid(full bool) []Cell {
	cells := []Cell{{1, 100}, {20, 10000}, {40, 10000}, {60, 100000}, {80, 100000}, {100, 100000}}
	for i := range cells {
		cells[i].T = Horizon(cells[i].T, full)
	}
	return cells
}

// Horizon returns the horizon a run uses for the paper's horizon paperT:
// paperT itself in a full run, a tenth of it in a reduced run, unless a
// tenth is under 1,000 rounds, which a reduced run keeps at paperT.
func Horizon(paperT int, full bool) int {
	if t := paperT / 10; !full && t >= 1000 {
		return t
	}
	return paperT
}
