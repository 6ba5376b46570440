// Command pricebench regenerates the paper's tables and figures as text
// tables and CSV series. It runs the same experiment configurations as
// the root benchmarks, at either reduced or full (paper) sizes: Fig. 4
// and Table I run experiment.Grid, and a reduced run takes a tenth of
// the paper's horizon (experiment.Horizon).
//
// Usage:
//
//	pricebench -experiment all -full -out results/
//
// Experiments: fig1, fig4, table1, fig5a, fig5b, fig5c, lemma8,
// theorem3, overhead, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"datamarket/internal/experiment"
)

func main() {
	var (
		which = flag.String("experiment", "all", "which experiment to run (fig1|fig4|table1|fig5a|fig5b|fig5c|lemma8|theorem3|overhead|all)")
		full  = flag.Bool("full", false, "run the paper's full sizes (slower)")
		out   = flag.String("out", "", "directory for CSV output (optional)")
		seed  = flag.Uint64("seed", 42, "experiment seed")
	)
	flag.Parse()

	if err := run(*which, *full, *out, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "pricebench:", err)
		os.Exit(1)
	}
}

func run(which string, full bool, out string, seed uint64) error {
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
	}
	all := which == "all"
	ran := false
	for _, exp := range []struct {
		name string
		fn   func(bool, string, uint64) error
	}{
		{"fig1", runFig1},
		{"fig4", runFig4},
		{"table1", runTable1},
		{"fig5a", runFig5a},
		{"fig5b", runFig5b},
		{"fig5c", runFig5c},
		{"lemma8", runLemma8},
		{"theorem3", runTheorem3},
		{"overhead", runOverhead},
	} {
		if all || which == exp.name {
			ran = true
			if err := exp.fn(full, out, seed); err != nil {
				return fmt.Errorf("%s: %w", exp.name, err)
			}
			fmt.Println()
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", which)
	}
	return nil
}

func saveCSV(out, name string, series []*experiment.Series, ratio bool) error {
	if out == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(out, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return experiment.WriteSeriesCSV(f, series, ratio)
}

func runFig1(full bool, out string, seed uint64) error {
	pts, err := experiment.RunFig1(10, 4, 21)
	if err != nil {
		return err
	}
	fmt.Println("Fig. 1: single-round regret vs posted price (value=10, reserve=4)")
	for _, p := range pts {
		bar := strings.Repeat("#", int(p.Regret*3))
		fmt.Printf("  p=%6.2f  R=%6.2f  %s\n", p.Posted, p.Regret, bar)
	}
	return nil
}

func runFig4(full bool, out string, seed uint64) error {
	for _, c := range experiment.Grid(full) {
		series, err := experiment.Fig4Cell(c.N, c.T, c.Owners(), 0.01, 0, seed)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Fig. 4: cumulative regret, n=%d, T=%d", c.N, c.T)
		if err := experiment.WriteSeriesTable(os.Stdout, title, series, false); err != nil {
			return err
		}
		if err := saveCSV(out, fmt.Sprintf("fig4_n%d.csv", c.N), series, false); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runTable1(full bool, out string, seed uint64) error {
	return experiment.WriteTable1(os.Stdout, experiment.Grid(full), seed)
}

func runFig5a(full bool, out string, seed uint64) error {
	T := experiment.Horizon(100000, full)
	series, err := experiment.Fig5aCell(100, T, 400, 0.01, 0.2, seed)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Fig. 5(a): regret ratios, noisy linear query, n=100, T=%d (ε=0.2 tuned)", T)
	if err := experiment.WriteSeriesTable(os.Stdout, title, series, true); err != nil {
		return err
	}
	return saveCSV(out, "fig5a.csv", series, true)
}

func runFig5b(full bool, out string, seed uint64) error {
	listings := 74111
	if !full {
		listings = 20000
	}
	results, err := experiment.Fig5bCells(listings, seed)
	if err != nil {
		return err
	}
	series := experiment.SeriesOfAccommodation(results)
	title := fmt.Sprintf("Fig. 5(b): regret ratios, accommodation rental, T=%d (OLS test MSE %.3f)",
		listings, results[0].TestMSE)
	if err := experiment.WriteSeriesTable(os.Stdout, title, series, true); err != nil {
		return err
	}
	return saveCSV(out, "fig5b.csv", series, true)
}

func runFig5c(full bool, out string, seed uint64) error {
	T := experiment.Horizon(100000, full)
	results, err := experiment.Fig5cCells(T, seed)
	if err != nil {
		return err
	}
	series := experiment.SeriesOfImpression(results)
	title := fmt.Sprintf("Fig. 5(c): regret ratios, impression pricing, T=%d", T)
	if err := experiment.WriteSeriesTable(os.Stdout, title, series, true); err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("  %s: FTRL loss %.3f, nonzero weights %d\n", r.Label, r.FitLogLoss, r.NonzeroWeights)
	}
	return saveCSV(out, "fig5c.csv", series, true)
}

func runLemma8(full bool, out string, seed uint64) error {
	res, err := experiment.RunLemma8(1200)
	if err != nil {
		return err
	}
	fmt.Println("Lemma 8 ablation: conservative-price cuts under the adversarial stream")
	fmt.Printf("  width along e2 at switch:  default %.3g, ablation %.3g\n",
		res.DefaultWidthAtSwitch, res.AblationWidthAtSwitch)
	fmt.Printf("  phase-2 cumulative regret: default %.2f, ablation %.2f\n",
		res.DefaultPhase2Regret, res.AblationPhase2Regret)
	fmt.Printf("  phase-2 exploratory rounds: default %d, ablation %d\n",
		res.DefaultExploratory, res.AblationExploratory)
	return nil
}

func runTheorem3(full bool, out string, seed uint64) error {
	horizons := []int{1000, 10000, 100000}
	if full {
		horizons = append(horizons, 1000000)
	}
	pts, err := experiment.RunTheorem3(horizons, seed)
	if err != nil {
		return err
	}
	fmt.Println("Theorem 3: 1-D cumulative regret vs horizon (ε = log₂(T)/T)")
	for _, p := range pts {
		fmt.Printf("  T=%8d  regret=%8.3f  regret/log₂T=%6.3f\n", p.T, p.CumRegret, p.CumRegret/p.LogT)
	}
	return nil
}

func runOverhead(full bool, out string, seed uint64) error {
	fmt.Println("§V-D overheads: per-round latency and mechanism state size")
	for _, n := range []int{20, 55, 100} {
		rounds := 2000
		if full {
			rounds = 20000
		}
		res, err := experiment.MeasureLinearOverhead(n, rounds, seed)
		if err != nil {
			return err
		}
		fmt.Printf("  %-32s latency %10v/round (p50 %v, p99 %v)   state %8d bytes   heap %10d bytes\n",
			res.Name, res.LatencyPerRound, res.LatencyP50, res.LatencyP99,
			res.MechanismBytes, res.ProcessBytes)
	}
	return nil
}
