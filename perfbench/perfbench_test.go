package main

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"datamarket/internal/server"
)

// tinySizes keep every workload's shape at a size the tests run in
// seconds. Impression keeps its full-size batches and dimension on one
// stream, so the stream sees thousands of rounds as the full run's
// popular streams do: a pure linear stream at d = 128 can post negative
// prices while it is young, and its regret ratio falls below 1, as the
// books check requires, only after that.
var tinySizes = sizes{
	listings: 200,
	streams:  1, hashDim: 128, pool: 256,
	owners: 120, movies: 100, queries: 48, support: 4,
	batch: 64,
}

var workloads = []string{"accommodation", "impression", "ratings"}

func tinyConfig(t *testing.T, name string, trace bool) config {
	return config{
		workload: name, seed: 7, seconds: 1, trace: trace, revision: "test",
		workdir: t.TempDir(), sizes: tinySizes, start: time.Now(),
	}
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaredMetrics reads the metric names and units BENCHMARK.json
// promises for a plain and a traced run.
func declaredMetrics(t *testing.T) (endToEnd, perLayer []declared) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b.EndToEnd, b.PerLayer
}

// checkResult asserts a run reported exactly the declared metrics, each
// with its unit and a finite value, and that every check passed.
func checkResult(t *testing.T, res *result, want []declared) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s in %q, declared %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.Name, m.Value)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result does not encode: %v", err)
	}
}

func TestEveryWorkloadReportsEveryEndToEndMetric(t *testing.T) {
	endToEnd, _ := declaredMetrics(t)
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := run(tinyConfig(t, name, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	_, perLayer := declaredMetrics(t)
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := run(tinyConfig(t, name, true), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
		})
	}
}

// TestPlanAlignsCheckpointPasses checks the layout the plan promises at
// the benchmark's 30 seconds: every checkpoint pass of the open-loop half
// falls inside a loaded slice, and the closed-loop phase holds exactly
// three passes.
func TestPlanAlignsCheckpointPasses(t *testing.T) {
	pl := newPlan(shape{lightRate: 1, loadedRate: 1}, 30)
	every := server.DefaultCheckpointInterval
	open := pl.cycle * time.Duration(pl.cycles)
	closed := 0
	for pass := every; pass < pl.lead+open+pl.closed; pass += every {
		at := pass - pl.lead // since the first cycle started
		switch {
		case at < 0:
			t.Errorf("the pass %v after attach comes before the first cycle", pass)
		case at < open:
			if at%pl.cycle < pl.cycle/3 {
				t.Errorf("the pass %v after attach falls in a light slice", pass)
			}
		default:
			closed++
		}
	}
	if closed != 3 {
		t.Errorf("the closed-loop phase holds %d checkpoint passes, want 3", closed)
	}
}

func digestOf(t *testing.T, name string, seed uint64) uint64 {
	t.Helper()
	wl, err := newWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.generate(seed, tinySizes, 300); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	wl.digest(h)
	return h.Sum64()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloads {
		a, b := digestOf(t, name, 11), digestOf(t, name, 11)
		if a != b {
			t.Errorf("%s: seed 11 gave digests %016x and %016x", name, a, b)
		}
		if c := digestOf(t, name, 12); c == a {
			t.Errorf("%s: seeds 11 and 12 gave the same digest %016x", name, a)
		}
	}
}

// TestTracedSpansNest drives each workload with tracing on and checks the
// span graph: every child lies inside its parent, every self time is
// non-negative, and every op's SDK span found the round trip carrying it.
func TestTracedSpansNest(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, name, true)
			tr := newTracer()
			wl, err := newWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			pl := newPlan(wl.shape(), cfg.seconds)
			rg, _, err := setUp(ctx, cfg, pl, 2, tr)
			if err != nil {
				t.Fatal(err)
			}
			ph := openLoop(ctx, newCallerPool(rg.wl, rg.main, rg.wl.shape().maxOut), pl.warm, min(pl.loaded, 200), 400)
			if err := rg.close(); err != nil {
				t.Fatal(err)
			}
			if ph.failed != 0 {
				t.Fatalf("%d ops failed: %s", ph.failed, ph.why)
			}
			fk, _ := rg.wl.(flusherKeyed)
			g, err := buildGraph(tr.snapshot(), fk)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range g.nestingErrors() {
				t.Error(e)
			}
			kinds := map[spanKind]int{}
			for i := range g.spans {
				s := &g.spans[i]
				kinds[s.Kind]++
				if self := g.self(i); self < 0 || self > s.dur() {
					t.Errorf("%s span %d: self time %v of %v", s.Kind, s.ID, self, s.dur())
				}
				if s.Kind == kindSDK && s.Op >= 0 {
					if _, ok := g.carrier[i]; !ok {
						t.Errorf("op %d: no round trip found carrying it", s.Op)
					}
				}
			}
			for _, k := range []spanKind{kindSDK, kindHTTP, kindHandler} {
				if kinds[k] == 0 {
					t.Errorf("no %s spans recorded", k)
				}
			}
			if name != "ratings" && kinds[kindPut] == 0 {
				t.Error("no store.put spans recorded for the write-ahead creates")
			}
		})
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Kind: kindSDK, Start: 0, End: ms(10), Op: -1},
		{ID: 2, Parent: 1, Kind: kindHTTP, Start: ms(1), End: ms(3), Op: -1},
		{ID: 3, Parent: 1, Kind: kindHTTP, Start: ms(2), End: ms(5), Op: -1},
		{ID: 4, Parent: 1, Kind: kindHTTP, Start: ms(7), End: ms(8), Op: -1},
	}
	g, err := buildGraph(spans, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.self(0); got != ms(5) {
		t.Errorf("self = %v, want 5ms", got)
	}
	if errs := g.nestingErrors(); len(errs) != 0 {
		t.Errorf("nesting errors: %v", errs)
	}
}
