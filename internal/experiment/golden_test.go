package experiment

// TestExperimentsGolden pins what every experiment of the paper's
// evaluation reports, run at small sizes, to testdata/golden.txt: the
// text WriteSeriesTable and WriteTable1 render, plus each run's scalar
// results. It compares text at the precision pricebench prints, not raw
// float bits: the tanh contracts and the exp and logistic links go
// through math.Exp, which takes an FMA path on amd64 CPUs that have one,
// so the last bits of a run may differ between machines.
//
// To regenerate after an intended change of the experiments' output:
//
//	go test ./internal/experiment/ -run TestExperimentsGolden -update

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt")

func TestExperimentsGolden(t *testing.T) {
	var buf bytes.Buffer
	w := &buf
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	series := func(title string, ss []*Series, ratio bool) {
		t.Helper()
		check(WriteSeriesTable(w, title, ss, ratio))
		for _, s := range ss {
			writeSeriesScalars(w, s)
		}
		fmt.Fprintln(w)
	}

	// Fig. 4 cells: the 1-D cell at the paper's horizon and a small one.
	for _, c := range []struct{ n, T int }{{1, 100}, {6, 400}} {
		ss, err := Fig4Cell(c.n, c.T, 100, 0.01, 0, 42)
		check(err)
		series(fmt.Sprintf("Fig. 4: n=%d, T=%d", c.n, c.T), ss, false)
	}
	// Fig. 5(a) with a tuned ε, which the uncertainty versions floor at 4nδ.
	ss, err := Fig5aCell(8, 500, 100, 0.01, 0.2, 42)
	check(err)
	series("Fig. 5(a): n=8, T=500", ss, true)
	// The consumer stream's other branches: uniform query weights and
	// market-value noise.
	s, err := RunLinearApp(LinearAppConfig{
		N: 5, T: 300, Owners: 25, Version: VersionReserveUncertainty, Delta: 0.05,
		UniformQueryWeights: true, Seed: 3, Checkpoints: []int{10, 100, 300},
	})
	check(err)
	series("Uniform weights with noise: n=5, T=300", []*Series{s}, false)

	// Table I rows. 100 owners is max(4n, 100) for both rows.
	check(WriteTable1(w, []Cell{{N: 1, T: 100}, {N: 10, T: 400}}, 42))
	fmt.Fprintln(w)

	// Fig. 5(b): the pure version and every reserve ratio with its
	// risk-averse counterpart.
	acc, err := Fig5bCells(500, 42)
	check(err)
	series(fmt.Sprintf("Fig. 5(b): T=500 (OLS test MSE %.3f)", acc[0].TestMSE),
		SeriesOfAccommodation(acc), true)
	for _, r := range acc {
		fmt.Fprintf(w, "%s: feature dim %d\n", r.Label, r.FeatureDim)
	}
	fmt.Fprintln(w)

	// Fig. 5(c): one sparse and one dense run.
	var imp []*ImpressionResult
	for _, dense := range []bool{false, true} {
		r, err := RunImpressionApp(ImpressionConfig{
			HashDim: 64, T: 400, FitRounds: 3000, Dense: dense, Seed: 42,
		})
		check(err)
		imp = append(imp, r)
	}
	series("Fig. 5(c): n=64, T=400", SeriesOfImpression(imp), true)
	for _, r := range imp {
		fmt.Fprintf(w, "%s: FTRL loss %.3f, nonzero weights %d, priced dim %d\n",
			r.Label, r.FitLogLoss, r.NonzeroWeights, r.PricedDim)
	}
	fmt.Fprintln(w)

	l8, err := RunLemma8(200)
	check(err)
	fmt.Fprintf(w, "Lemma 8, T=200: width at switch default %.3g, ablation %.3g; "+
		"phase-2 regret default %.2f, ablation %.2f; phase-2 exploratory default %d, ablation %d\n\n",
		l8.DefaultWidthAtSwitch, l8.AblationWidthAtSwitch,
		l8.DefaultPhase2Regret, l8.AblationPhase2Regret,
		l8.DefaultExploratory, l8.AblationExploratory)

	t3, err := RunTheorem3([]int{100, 1000}, 1)
	check(err)
	fmt.Fprintln(w, "Theorem 3:")
	for _, p := range t3 {
		fmt.Fprintf(w, "  T=%d regret=%.3f regret/log2T=%.3f\n", p.T, p.CumRegret, p.CumRegret/p.LogT)
	}
	fmt.Fprintln(w)

	eps, err := ThresholdSweep(6, 500, 40, []float64{0.05, 0.2, 0.8}, 3)
	check(err)
	writeSweep(w, "Threshold sweep: n=6, T=500", eps)
	deltas, err := UncertaintySweep(5, 500, 40, []float64{0, 0.01, 0.05}, 5)
	check(err)
	writeSweep(w, "Uncertainty sweep: n=5, T=500", deltas)

	sgd, ell, err := SGDComparison(4, 500, 40, 7)
	check(err)
	fmt.Fprintf(w, "SGD comparison, n=4, T=500: sgd ratio %.4f, ellipsoid ratio %.4f\n", sgd, ell)

	path := filepath.Join("testdata", "golden.txt")
	if *update {
		check(os.MkdirAll("testdata", 0o755))
		check(os.WriteFile(path, buf.Bytes(), 0o644))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v\nrun `go test ./internal/experiment/ -run TestExperimentsGolden -update`", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("experiment output differs from %s\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// writeSeriesScalars renders a run's end-of-run results.
func writeSeriesScalars(w io.Writer, s *Series) {
	fmt.Fprintf(w, "%s: final regret %.2f, ratio %.4f; value %s, reserve %s, posted %s, regret %s; %+v\n",
		s.Label, s.FinalRegret, s.FinalRatio,
		s.Table.MarketValue, s.Table.Reserve, s.Table.Posted, s.Table.Regret, s.Counters)
}

// writeSweep renders the points of an ablation sweep.
func writeSweep(w io.Writer, title string, pts []SweepPoint) {
	fmt.Fprintln(w, title)
	for _, p := range pts {
		fmt.Fprintf(w, "  param %g: ratio %.4f, exploratory %d\n", p.Param, p.FinalRatio, p.Exploratory)
	}
	fmt.Fprintln(w)
}
