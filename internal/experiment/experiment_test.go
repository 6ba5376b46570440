package experiment

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestCheckpoints(t *testing.T) {
	cps := Checkpoints(1000, 3)
	if cps[0] != 1 {
		t.Fatalf("first checkpoint = %d", cps[0])
	}
	if cps[len(cps)-1] != 1000 {
		t.Fatalf("last checkpoint = %d", cps[len(cps)-1])
	}
	for i := 1; i < len(cps); i++ {
		if cps[i] <= cps[i-1] {
			t.Fatalf("checkpoints not strictly increasing: %v", cps)
		}
	}
	if len(Checkpoints(0, 3)) != 0 {
		t.Fatal("T=0 should have no checkpoints")
	}
	one := Checkpoints(1, 3)
	if len(one) != 1 || one[0] != 1 {
		t.Fatalf("T=1 checkpoints = %v", one)
	}
	// Degenerate pointsPerDecade is clamped.
	if len(Checkpoints(100, 0)) == 0 {
		t.Fatal("clamped pointsPerDecade broke the grid")
	}
}

func TestGrid(t *testing.T) {
	// A reduced run keeps a horizon whose tenth is under 1,000 rounds.
	want := map[bool][]Cell{
		false: {{1, 100}, {20, 1000}, {40, 1000}, {60, 10000}, {80, 10000}, {100, 10000}},
		true:  {{1, 100}, {20, 10000}, {40, 10000}, {60, 100000}, {80, 100000}, {100, 100000}},
	}
	for full, cells := range want {
		if got := Grid(full); !reflect.DeepEqual(got, cells) {
			t.Fatalf("Grid(%v) = %v, want %v", full, got, cells)
		}
	}
	for n, owners := range map[int]int{1: 100, 25: 100, 26: 104, 100: 400} {
		if got := (Cell{N: n}).Owners(); got != owners {
			t.Fatalf("Cell{N: %d}.Owners() = %d, want %d", n, got, owners)
		}
	}
}

func TestVersionProperties(t *testing.T) {
	if VersionPure.UsesReserve() || VersionPure.UsesUncertainty() {
		t.Fatal("pure version flags wrong")
	}
	if !VersionReserve.UsesReserve() || VersionReserve.UsesUncertainty() {
		t.Fatal("reserve version flags wrong")
	}
	if VersionUncertainty.UsesReserve() || !VersionUncertainty.UsesUncertainty() {
		t.Fatal("uncertainty version flags wrong")
	}
	if !VersionReserveUncertainty.UsesReserve() || !VersionReserveUncertainty.UsesUncertainty() {
		t.Fatal("combined version flags wrong")
	}
	if !VersionRiskAverse.UsesReserve() {
		t.Fatal("baseline must use reserve")
	}
	for _, v := range append(append([]Version{}, AllVersions...), VersionRiskAverse) {
		if v.String() == "" || strings.HasPrefix(v.String(), "Version(") {
			t.Fatalf("missing label for version %d", int(v))
		}
	}
	if Version(42).String() != "Version(42)" {
		t.Fatal("unknown version label wrong")
	}
}

func TestRunLinearAppValidation(t *testing.T) {
	bad := []LinearAppConfig{
		{N: 0, T: 10, Owners: 10},
		{N: 2, T: 0, Owners: 10},
		{N: 20, T: 10, Owners: 5},
		{N: 2, T: 10, Owners: 10, Delta: -1},
	}
	for i, cfg := range bad {
		if _, err := RunLinearApp(cfg); err == nil {
			t.Fatalf("config %d should fail: %+v", i, cfg)
		}
	}
}

func TestRunLinearAppOneDimensional(t *testing.T) {
	// §V-A one-dimensional discussion: the feature is constant 1, the
	// reserve constant 1, the market value constant √2.
	s, err := RunLinearApp(LinearAppConfig{
		N: 1, T: 100, Owners: 50, Version: VersionReserve, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Table.MarketValue.Mean-math.Sqrt2) > 1e-9 || s.Table.MarketValue.Std > 1e-9 {
		t.Fatalf("market value = %v (%v), want constant √2",
			s.Table.MarketValue.Mean, s.Table.MarketValue.Std)
	}
	if math.Abs(s.Table.Reserve.Mean-1) > 1e-9 || s.Table.Reserve.Std > 1e-9 {
		t.Fatalf("reserve = %v (%v), want constant 1", s.Table.Reserve.Mean, s.Table.Reserve.Std)
	}
	// Regret per round must be tiny after bisection converges.
	if s.FinalRatio > 0.1 {
		t.Fatalf("1-D regret ratio = %v", s.FinalRatio)
	}
}

func TestLinearAppPaperShape(t *testing.T) {
	// A scaled-down Fig. 4 cell: all four versions on the same stream.
	const (
		n      = 10
		T      = 3000
		owners = 100
	)
	series, err := Fig4Cell(n, T, owners, 0.01, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("got %d series", len(series))
	}
	byVersion := map[string]*Series{}
	for _, s := range series {
		byVersion[s.Label] = s
		if s.FinalRegret < 0 {
			t.Fatalf("%s: negative regret", s.Label)
		}
		if len(s.CumRegret) != len(s.Checkpoints) {
			t.Fatalf("%s: %d samples for %d checkpoints", s.Label, len(s.CumRegret), len(s.Checkpoints))
		}
		// Cumulative regret must be non-decreasing.
		for i := 1; i < len(s.CumRegret); i++ {
			if s.CumRegret[i] < s.CumRegret[i-1]-1e-9 {
				t.Fatalf("%s: cumulative regret decreased", s.Label)
			}
		}
	}
	pure := byVersion[VersionPure.String()]
	reserve := byVersion[VersionReserve.String()]
	uncertain := byVersion[VersionUncertainty.String()]
	// Paper headline: the reserve price reduces cumulative regret.
	if reserve.FinalRegret > pure.FinalRegret*1.05 {
		t.Fatalf("reserve (%v) did not reduce regret vs pure (%v)",
			reserve.FinalRegret, pure.FinalRegret)
	}
	// Uncertainty costs regret relative to the pure version.
	if uncertain.FinalRegret < pure.FinalRegret*0.8 {
		t.Fatalf("uncertainty (%v) implausibly beat pure (%v)",
			uncertain.FinalRegret, pure.FinalRegret)
	}
	// All learning versions end with modest regret ratios.
	for _, s := range series {
		if s.FinalRatio > 0.5 {
			t.Fatalf("%s: final ratio %v too high", s.Label, s.FinalRatio)
		}
	}
}

func TestLinearAppColdStartMitigation(t *testing.T) {
	// Fig. 5(a) claim: at small t the reserve version's regret ratio is
	// far below the pure version's. The cold-start window lasts on the
	// order of n rounds (the reserve binds until the ellipsoid center has
	// risen along most directions), so probe t ≲ n at a larger n.
	const (
		n      = 40
		T      = 500
		owners = 200
	)
	cps := []int{10, 20, 40, T}
	run := func(v Version) *Series {
		s, err := RunLinearApp(LinearAppConfig{
			N: n, T: T, Owners: owners, Version: v, Seed: 21, Checkpoints: cps,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pure := run(VersionPure)
	reserve := run(VersionReserve)
	better := 0
	for i := 0; i < 3; i++ {
		if reserve.RegretRatio[i] < pure.RegretRatio[i] {
			better++
		}
	}
	if better < 2 {
		t.Fatalf("reserve did not mitigate cold start: pure %v vs reserve %v",
			pure.RegretRatio[:3], reserve.RegretRatio[:3])
	}
	// And the advantage persists through the end of the run.
	if reserve.FinalRatio > pure.FinalRatio*1.05 {
		t.Fatalf("reserve final ratio %v above pure %v", reserve.FinalRatio, pure.FinalRatio)
	}
}

func TestFig5aIncludesBaselineAndOrdering(t *testing.T) {
	series, err := Fig5aCell(8, 2000, 80, 0.01, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("got %d series", len(series))
	}
	baseline := series[4]
	if baseline.Label != VersionRiskAverse.String() {
		t.Fatalf("last series = %s", baseline.Label)
	}
	reserve := series[2]
	// The headline §V-A comparison: the mechanism beats always-reserve.
	if !(reserve.FinalRatio < baseline.FinalRatio) {
		t.Fatalf("reserve ratio %v not below baseline %v",
			reserve.FinalRatio, baseline.FinalRatio)
	}
}

func TestTable1RowSane(t *testing.T) {
	row, err := Table1Row(10, 500, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if row.MarketValue.Count != 500 {
		t.Fatalf("count = %d", row.MarketValue.Count)
	}
	// Market values exceed reserves on average (the §V-A construction).
	if !(row.MarketValue.Mean > row.Reserve.Mean) {
		t.Fatalf("value mean %v not above reserve mean %v",
			row.MarketValue.Mean, row.Reserve.Mean)
	}
	if row.Regret.Mean < 0 {
		t.Fatal("negative mean regret")
	}
}

func TestWriteSeriesTableAndCSV(t *testing.T) {
	series, err := Fig4Cell(3, 200, 30, 0.01, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSeriesTable(&buf, "Fig 4 test", series, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig 4 test") || !strings.Contains(out, "Pure Version") {
		t.Fatalf("table output missing headers:\n%s", out)
	}
	buf.Reset()
	if err := WriteSeriesCSV(&buf, series, true); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(series[0].Checkpoints)+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), len(series[0].Checkpoints)+1)
	}
	if err := WriteSeriesTable(&buf, "x", nil, false); err == nil {
		t.Fatal("expected error for empty series")
	}
	if err := WriteSeriesCSV(&buf, nil, false); err == nil {
		t.Fatal("expected error for empty series")
	}
}

func TestWriteTable1(t *testing.T) {
	var buf bytes.Buffer
	err := WriteTable1(&buf, []Cell{{N: 1, T: 50}, {N: 4, T: 100}}, 11)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "Market Value") {
		t.Fatalf("Table I output malformed:\n%s", out)
	}
}
