package experiment

import (
	"math"
	"testing"
)

func TestAccommodationValidation(t *testing.T) {
	if _, err := RunAccommodationApp(AccommodationConfig{Listings: 10}); err == nil {
		t.Fatal("expected listings error")
	}
	if _, err := RunAccommodationApp(AccommodationConfig{Listings: 200, LogReserveRatio: 1.5}); err == nil {
		t.Fatal("expected ratio error")
	}
	if _, err := RunAccommodationApp(AccommodationConfig{Listings: 200, RiskAverse: true}); err == nil {
		t.Fatal("expected baseline-needs-reserve error")
	}
}

func TestAccommodationPureAndReserve(t *testing.T) {
	// The n = 56 model needs the paper's full horizon to leave the
	// exploration phase, so this test runs the real T = 74,111.
	const listings = 74111
	const eps = 0 // Theorem 1 default: n²/T ≈ 0.042 at this T
	pure, err := RunAccommodationApp(AccommodationConfig{Listings: listings, Seed: 5, Threshold: eps})
	if err != nil {
		t.Fatal(err)
	}
	// Offline fit: test MSE near the generator's noise variance 0.2256.
	if pure.TestMSE < 0.15 || pure.TestMSE > 0.32 {
		t.Fatalf("test MSE = %v, want ≈ 0.226", pure.TestMSE)
	}
	if pure.FeatureDim != 56 {
		t.Fatalf("feature dim = %d", pure.FeatureDim)
	}
	// The online mechanism's ratio must be well under the always-reserve
	// baseline's. (The paper reports 4.57% on the real table; our
	// synthetic stream has higher effective dimensionality, which keeps
	// the exploration phase alive longer.)
	if pure.FinalRatio > 0.35 {
		t.Fatalf("pure final ratio = %v", pure.FinalRatio)
	}
	res, err := RunAccommodationApp(AccommodationConfig{
		Listings: listings, LogReserveRatio: 0.6, Seed: 5, Threshold: eps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalRatio > 0.35 {
		t.Fatalf("reserve final ratio = %v", res.FinalRatio)
	}
	base, err := RunAccommodationApp(AccommodationConfig{
		Listings: listings, LogReserveRatio: 0.6, RiskAverse: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// §V-B headline: the mechanism beats the risk-averse baseline.
	if !(res.FinalRatio < base.FinalRatio) {
		t.Fatalf("mechanism %v not below baseline %v", res.FinalRatio, base.FinalRatio)
	}
	// The baseline's ratio reflects the markup: with log q = 0.6 log v,
	// regret per round is v − v^0.6, so the ratio is substantial.
	if base.FinalRatio < 0.05 {
		t.Fatalf("baseline ratio %v implausibly low", base.FinalRatio)
	}
}

func TestAccommodationReserveRatioOrdering(t *testing.T) {
	// Fig. 5(b): as the reserve approaches the market value, the
	// baseline's regret ratio falls (smaller markup left on the table).
	const listings = 2500
	var prev float64 = math.Inf(1)
	for _, ratio := range []float64{0.4, 0.6, 0.8} {
		base, err := RunAccommodationApp(AccommodationConfig{
			Listings: listings, LogReserveRatio: ratio, RiskAverse: true, Seed: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		if base.FinalRatio >= prev {
			t.Fatalf("baseline ratio not decreasing in reserve ratio at %v", ratio)
		}
		prev = base.FinalRatio
	}
}

func TestImpressionValidation(t *testing.T) {
	if _, err := RunImpressionApp(ImpressionConfig{HashDim: 1, T: 10}); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := RunImpressionApp(ImpressionConfig{HashDim: 64, T: 0}); err == nil {
		t.Fatal("expected T error")
	}
	if _, err := RunImpressionApp(ImpressionConfig{HashDim: 64, T: 10, Threshold: -1}); err == nil {
		t.Fatal("expected threshold error")
	}
}

func TestImpressionSparseAndDense(t *testing.T) {
	// Fig. 5(c) shape at unit-test scale: the dense case (pricing only
	// the ~20–35 nonzero-weight coordinates) finishes its exploration
	// phase and pulls its regret ratio down, while the sparse case at
	// n = 128 is still exploring — the central-cut ellipsoid needs
	// O(n² log(1/ε)) cuts, far beyond T here.
	const T = 20000
	sparse, err := RunImpressionApp(ImpressionConfig{HashDim: 128, T: T, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sparse.PricedDim != 128 {
		t.Fatalf("sparse priced dim = %d", sparse.PricedDim)
	}
	// The FTRL fit must be sparse and in the paper's loss ballpark.
	if sparse.NonzeroWeights < 5 || sparse.NonzeroWeights > 64 {
		t.Fatalf("nonzero weights = %d", sparse.NonzeroWeights)
	}
	if sparse.FitLogLoss < 0.3 || sparse.FitLogLoss > 0.55 {
		t.Fatalf("fit loss = %v", sparse.FitLogLoss)
	}
	dense, err := RunImpressionApp(ImpressionConfig{HashDim: 128, T: T, Dense: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if dense.PricedDim != dense.NonzeroWeights {
		t.Fatalf("dense priced dim = %d, nonzeros %d", dense.PricedDim, dense.NonzeroWeights)
	}
	// Dense must have finished exploring and be clearly ahead of sparse.
	if dense.Counters.Exploratory >= T {
		t.Fatal("dense case never left the exploration phase")
	}
	if !(dense.FinalRatio < sparse.FinalRatio*0.85) {
		t.Fatalf("dense ratio %v not clearly below sparse %v", dense.FinalRatio, sparse.FinalRatio)
	}
	if sparse.FinalRatio < 0.2 || sparse.FinalRatio > 0.8 {
		t.Fatalf("sparse ratio %v outside the mid-exploration band", sparse.FinalRatio)
	}
	if dense.FinalRatio > 0.45 {
		t.Fatalf("dense ratio %v too high", dense.FinalRatio)
	}
}

func TestLemma8Experiment(t *testing.T) {
	res, err := RunLemma8(1200)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.AblationWidthAtSwitch > 100*res.DefaultWidthAtSwitch) {
		t.Fatalf("ablation width %v not far above default %v",
			res.AblationWidthAtSwitch, res.DefaultWidthAtSwitch)
	}
	if !(res.AblationPhase2Regret > 2*res.DefaultPhase2Regret) {
		t.Fatalf("ablation regret %v not clearly above default %v",
			res.AblationPhase2Regret, res.DefaultPhase2Regret)
	}
	if _, err := RunLemma8(10); err == nil {
		t.Fatal("expected T error")
	}
	if _, err := RunLemma8(21); err == nil {
		t.Fatal("expected even-T error")
	}
}

func TestTheorem3Experiment(t *testing.T) {
	points, err := RunTheorem3([]int{500, 4000, 32000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// O(log T): regret grows much slower than T. An 64× horizon increase
	// must grow regret by far less than 64×.
	growth := points[2].CumRegret / math.Max(points[0].CumRegret, 1e-9)
	if growth > 8 {
		t.Fatalf("regret growth %v too fast for O(log T)", growth)
	}
	if _, err := RunTheorem3(nil, 1); err == nil {
		t.Fatal("expected empty horizons error")
	}
	if _, err := RunTheorem3([]int{1}, 1); err == nil {
		t.Fatal("expected small horizon error")
	}
}

func TestFig1Curve(t *testing.T) {
	pts, err := RunFig1(10, 4, 61)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 61 {
		t.Fatalf("points = %d", len(pts))
	}
	// Shape: decreasing to zero at p = v, then jumps to v.
	sawZero := false
	sawCliff := false
	for i := 1; i < len(pts); i++ {
		if pts[i].Posted <= 10 && pts[i].Regret > pts[i-1].Regret+1e-9 {
			t.Fatalf("regret increased below the value at %v", pts[i].Posted)
		}
		if pts[i].Regret == 0 {
			sawZero = true
		}
		if pts[i].Posted > 10 && pts[i].Regret == 10 {
			sawCliff = true
		}
	}
	if !sawZero || !sawCliff {
		t.Fatalf("curve missing zero point or cliff: %+v", pts[len(pts)-5:])
	}
	if _, err := RunFig1(10, 4, 1); err == nil {
		t.Fatal("expected points error")
	}
	if _, err := RunFig1(-1, 0, 10); err == nil {
		t.Fatal("expected value error")
	}
}

func TestOverheadMeasurement(t *testing.T) {
	res, err := MeasureLinearOverhead(20, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyPerRound <= 0 {
		t.Fatalf("latency = %v", res.LatencyPerRound)
	}
	// §V-D claim: per-round latency in the (sub-)millisecond range.
	if res.LatencyPerRound.Milliseconds() > 10 {
		t.Fatalf("latency per round %v implausibly slow", res.LatencyPerRound)
	}
	if res.MechanismBytes == 0 || res.ProcessBytes == 0 {
		t.Fatalf("memory accounting empty: %+v", res)
	}
	if _, err := MeasureLinearOverhead(0, 1, 1); err == nil {
		t.Fatal("expected config error")
	}
}
