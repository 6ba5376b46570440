// Benchmarks regenerating every table and figure of the paper's
// evaluation section. Each benchmark runs one experiment configuration
// and reports the headline quantity via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the reproduction alongside timing. Benchmark sizes default to a
// scaled-down grid so the suite completes in minutes; set
//
//	PRICEBENCH_FULL=1 go test -bench=. -timeout 2h
//
// for the paper's full sizes (n up to 100/1024, T up to 10⁵, 74,111
// listings). cmd/pricebench runs the same configurations as a CLI.
package datamarket_test

import (
	"os"
	"strconv"
	"testing"

	"datamarket/internal/experiment"
	"datamarket/internal/linalg"
	"datamarket/internal/pricing"
	"datamarket/internal/randx"
)

// fullScale reports whether the paper's full experiment sizes were
// requested.
func fullScale() bool { return os.Getenv("PRICEBENCH_FULL") == "1" }

// BenchmarkFig4 regenerates the cumulative regret curves of Fig. 4:
// four mechanism versions × n ∈ {1, 20, 40, 60, 80, 100}.
func BenchmarkFig4(b *testing.B) {
	for _, c := range experiment.Grid(fullScale()) {
		b.Run(benchName("n", c.N), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				series, err := experiment.Fig4Cell(c.N, c.T, c.Owners(), 0.01, 0, 42)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					for _, s := range series {
						b.ReportMetric(s.FinalRegret, "regret:"+shortLabel(s.Label))
					}
				}
			}
		})
	}
}

// BenchmarkTable1 regenerates the per-round statistics of Table I for the
// version with reserve price.
func BenchmarkTable1(b *testing.B) {
	for _, c := range experiment.Grid(fullScale()) {
		b.Run(benchName("n", c.N), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row, err := experiment.Table1Row(c.N, c.T, c.Owners(), 42)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(row.MarketValue.Mean, "value-mean")
					b.ReportMetric(row.Reserve.Mean, "reserve-mean")
					b.ReportMetric(row.Posted.Mean, "posted-mean")
					b.ReportMetric(row.Regret.Mean, "regret-mean")
				}
			}
		})
	}
}

// BenchmarkFig5a regenerates the regret-ratio comparison of Fig. 5(a):
// the four versions plus the risk-averse baseline at n = 100.
func BenchmarkFig5a(b *testing.B) {
	T := experiment.Horizon(100000, fullScale())
	for i := 0; i < b.N; i++ {
		// ε = 0.2 is a tuned threshold (BenchmarkThresholdSweep measures
		// the trade-off); the Theorem 1 schedule is exercised by
		// BenchmarkFig4.
		series, err := experiment.Fig5aCell(100, T, 400, 0.01, 0.2, 42)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range series {
				b.ReportMetric(s.FinalRatio, "ratio:"+shortLabel(s.Label))
			}
		}
	}
}

// BenchmarkFig5b regenerates the accommodation rental regret ratios of
// Fig. 5(b): pure version and reserve ratios {0.4, 0.6, 0.8} with their
// risk-averse counterparts.
func BenchmarkFig5b(b *testing.B) {
	listings := 74111
	if !fullScale() {
		listings = 20000
	}
	for i := 0; i < b.N; i++ {
		results, err := experiment.Fig5bCells(listings, 42)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range results {
				b.ReportMetric(r.FinalRatio, "ratio:"+shortLabel(r.Label))
			}
			b.ReportMetric(results[0].TestMSE, "ols-test-mse")
		}
	}
}

// BenchmarkFig5c regenerates the impression pricing regret ratios of
// Fig. 5(c): n ∈ {128, 1024} × {sparse, dense}.
func BenchmarkFig5c(b *testing.B) {
	T := experiment.Horizon(100000, fullScale())
	for i := 0; i < b.N; i++ {
		results, err := experiment.Fig5cCells(T, 42)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range results {
				b.ReportMetric(r.FinalRatio, "ratio:"+shortLabel(r.Label))
				b.ReportMetric(float64(r.NonzeroWeights), "nnz:"+shortLabel(r.Label))
			}
		}
	}
}

// BenchmarkOverhead reproduces the §V-D latency measurements: per-round
// posted-price plus knowledge-update time at the paper's dimensions.
func BenchmarkOverhead(b *testing.B) {
	for _, n := range []int{20, 55, 100} {
		n := n
		b.Run(benchName("n", n), func(b *testing.B) {
			res, err := experiment.MeasureLinearOverhead(n, 2000, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.LatencyPerRound.Nanoseconds())/1e6, "ms/round")
			b.ReportMetric(float64(res.MechanismBytes), "state-bytes")
			for i := 0; i < b.N; i++ {
				if _, err := experiment.MeasureLinearOverhead(n, 100, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLemma8 reproduces the appendix ablation: conservative-price
// cuts blow up phase-2 regret under the Lemma 8 adversary.
func BenchmarkLemma8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunLemma8(1200)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.AblationPhase2Regret, "ablation-regret")
			b.ReportMetric(res.DefaultPhase2Regret, "default-regret")
			b.ReportMetric(res.AblationWidthAtSwitch, "ablation-width")
		}
	}
}

// BenchmarkTheorem3 reproduces the 1-D O(log T) regret scaling.
func BenchmarkTheorem3(b *testing.B) {
	horizons := []int{1000, 10000, 100000}
	for i := 0; i < b.N; i++ {
		pts, err := experiment.RunTheorem3(horizons, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				b.ReportMetric(p.CumRegret, benchName("regret-T", p.T))
			}
		}
	}
}

// BenchmarkFig1 regenerates the single-round regret curve of Fig. 1.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiment.RunFig1(10, 4, 101)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Report the cliff height (regret just above the value).
			b.ReportMetric(pts[len(pts)-1].Regret, "cliff-regret")
		}
	}
}

// BenchmarkThresholdSweep is the ε ablation: exploration volume vs
// conservative slack behind Fig. 5(a)'s tuned threshold.
func BenchmarkThresholdSweep(b *testing.B) {
	T := experiment.Horizon(30000, fullScale())
	for i := 0; i < b.N; i++ {
		pts, err := experiment.ThresholdSweep(40, T, 160, []float64{0.05, 0.2, 0.8}, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				b.ReportMetric(p.FinalRatio, "ratio:eps="+trimFloat(p.Param))
			}
		}
	}
}

// BenchmarkUncertaintySweep is the δ ablation: the cost of robustness.
func BenchmarkUncertaintySweep(b *testing.B) {
	T := experiment.Horizon(30000, fullScale())
	for i := 0; i < b.N; i++ {
		pts, err := experiment.UncertaintySweep(20, T, 100, []float64{0, 0.01, 0.05, 0.1}, 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				b.ReportMetric(p.FinalRatio, "ratio:delta="+trimFloat(p.Param))
			}
		}
	}
}

// BenchmarkSGDComparison pits the Amin et al. SGD baseline (§VI-B)
// against the ellipsoid mechanism on an identical stream.
func BenchmarkSGDComparison(b *testing.B) {
	T := experiment.Horizon(20000, fullScale())
	for i := 0; i < b.N; i++ {
		sgd, ell, err := experiment.SGDComparison(10, T, 100, 7)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(sgd, "ratio:sgd")
			b.ReportMetric(ell, "ratio:ellipsoid")
		}
	}
}

func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', 3, 64)
}

// BenchmarkPostPrice measures the §V-D micro-latency of a single pricing
// round (posted price + knowledge update) at the paper's dimensions.
func BenchmarkPostPrice(b *testing.B) {
	for _, n := range []int{20, 55, 100, 1024} {
		n := n
		b.Run(benchName("n", n), func(b *testing.B) {
			m, err := pricing.New(n, 10, pricing.WithReserve(), pricing.WithThreshold(0.05))
			if err != nil {
				b.Fatal(err)
			}
			r := randx.New(1)
			xs := make([]linalg.Vector, 256)
			for i := range xs {
				xs[i] = r.OnSphere(n)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := xs[i%len(xs)]
				q, err := m.PostPrice(x, 0.1)
				if err != nil {
					b.Fatal(err)
				}
				if q.Decision != pricing.DecisionSkip {
					if err := m.Observe(i%2 == 0); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

// shortLabel compresses series labels for metric names.
func shortLabel(label string) string {
	switch label {
	case "Pure Version":
		return "pure"
	case "With Uncertainty":
		return "unc"
	case "With Reserve Price":
		return "res"
	case "With Reserve Price and Uncertainty":
		return "res+unc"
	case "Risk-Averse Baseline":
		return "baseline"
	}
	out := make([]rune, 0, len(label))
	for _, c := range label {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '=':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+32)
		}
	}
	return string(out)
}
