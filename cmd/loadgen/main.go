// Command loadgen is the scenario engine: it replays the paper's
// evaluation datasets (§VI) against a live brokerd entirely through the
// public SDK, prints one table row per scenario and driver, and with
// -out also writes the rows as a JSON report. `make loadgen-smoke` is
// its CI gate. The gated benchmark of the serving stack is perfbench
// (see BENCHMARK.json); loadgen is the driver to point at a running
// brokerd.
//
// Four scenarios (-scenario, default all):
//
//   - accommodation: Airbnb listings grouped into city × room-type
//     pricing streams, priced via the SDK Flusher (coalesced
//     multi-stream batches), reserve constraint on;
//   - impression: Avazu hashed-CTR vectors priced in high-fanout
//     /price/batch calls against a stream population with Zipf-skewed
//     popularity;
//   - ratings: MovieLens raters as the owners of one hosted market,
//     traded against with sparse skew-chosen queries via /trade/batch;
//   - mixed: all three interleaved 40/40/20 from every worker.
//
// Each scenario runs under an open-loop (target-rate,
// coordinated-omission-safe) and a closed-loop (fixed-concurrency)
// driver (-mode both|open|closed). Every scenario has a deterministic
// synthetic fallback, so no raw dataset files are needed; -airbnb,
// -avazu, and -movielens feed real CSVs when present.
//
// With -addr unset, loadgen hosts an in-process brokerd (what -smoke
// runs against); point -addr at a running broker to load it over real
// sockets.
//
// The default open-loop rate is deliberately sustainable by every
// scenario, so the report tracks latency-at-load; raise -rate to
// push a scenario into overload and the coordinated-omission-safe
// driver reports the queueing delay honestly instead of hiding it.
//
// Usage:
//
//	loadgen -duration 2s -out loadgen.json
//	loadgen -smoke            # CI: tiny sizes, asserts a clean run
//	loadgen -addr http://localhost:8080 -scenario impression -rate 2000 -binary
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"datamarket/client"
	"datamarket/internal/loadgen"
	"datamarket/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "", "brokerd base URL (default: host an in-process broker)")
		scenario    = flag.String("scenario", "all", "scenario: all | accommodation | impression | ratings | mixed")
		mode        = flag.String("mode", "both", "driver mode: both | open | closed")
		duration    = flag.Duration("duration", 2*time.Second, "window per scenario per mode")
		rate        = flag.Float64("rate", 100, "open-loop target rate (ops/s; one op = one batched call)")
		concurrency = flag.Int("concurrency", runtime.NumCPU(), "closed-loop worker count")
		outstanding = flag.Int("max-outstanding", 4096, "open-loop in-flight op bound")
		batch       = flag.Int("batch", 64, "rounds/trades per batched call")
		skew        = flag.Float64("skew", 1, "stream/owner popularity skew (0 = uniform)")
		streams     = flag.Int("streams", 32, "impression stream fan-out")
		listings    = flag.Int("listings", 2000, "accommodation table size")
		users       = flag.Int("users", 400, "ratings market owner population")
		support     = flag.Int("support", 16, "nonzero weights per market query")
		seed        = flag.Uint64("seed", 1, "generator seed")
		binary      = flag.Bool("binary", false, "use the binary wire codec for SDK hot calls")
		airbnbCSV   = flag.String("airbnb", "", "real Airbnb listings CSV (optional)")
		avazuCSV    = flag.String("avazu", "", "real Avazu impressions CSV (optional)")
		mlCSV       = flag.String("movielens", "", "real MovieLens ratings CSV (optional)")
		out         = flag.String("out", "", "JSON report path (none when empty)")
		smoke       = flag.Bool("smoke", false, "CI smoke: tiny synthetic sizes, short windows, fail on any error beyond -error-budget")
		errBudget   = flag.Int64("error-budget", 0, "max tolerated failed ops in -smoke")
	)
	flag.Parse()
	if err := run(config{
		addr: *addr, scenario: *scenario, mode: *mode, duration: *duration,
		rate: *rate, concurrency: *concurrency, outstanding: *outstanding,
		batch: *batch, skew: *skew, streams: *streams, listings: *listings,
		users: *users, support: *support, seed: *seed, binary: *binary,
		airbnbCSV: *airbnbCSV, avazuCSV: *avazuCSV, mlCSV: *mlCSV,
		out: *out, smoke: *smoke, errBudget: *errBudget,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type config struct {
	addr, scenario, mode       string
	duration                   time.Duration
	rate                       float64
	concurrency, outstanding   int
	batch                      int
	skew                       float64
	streams, listings          int
	users, support             int
	seed                       uint64
	binary                     bool
	airbnbCSV, avazuCSV, mlCSV string
	out                        string
	smoke                      bool
	errBudget                  int64
}

func (c *config) scenarioConfig() loadgen.Config {
	cfg := loadgen.Config{
		Seed: c.seed, Skew: c.skew, Batch: c.batch,
		Listings: c.listings, Streams: c.streams,
		Users: c.users, Support: c.support,
		AirbnbCSV: c.airbnbCSV, AvazuCSV: c.avazuCSV, MovieLensCSV: c.mlCSV,
	}
	if c.smoke {
		// Tiny deterministic sizes: all scenarios, both drivers, ~5s wall
		// clock total, no CSVs required.
		cfg.Batch = 8
		cfg.Listings = 60
		cfg.Streams = 4
		cfg.PoolSize = 256
		cfg.Users = 40
		cfg.Movies = 80
		cfg.Support = 4
	}
	return cfg
}

func run(c config) error {
	if c.smoke {
		if c.duration == 2*time.Second {
			c.duration = 250 * time.Millisecond
		}
		if c.rate == 100 {
			c.rate = 300
		}
		if c.concurrency > 4 {
			c.concurrency = 4
		}
	}
	base := c.addr
	if base == "" {
		ts := httptest.NewServer(server.NewServer(nil).Handler())
		defer ts.Close()
		base = ts.URL
		fmt.Printf("hosting in-process brokerd at %s\n", base)
	}
	var opts []client.Option
	if c.binary {
		opts = append(opts, client.WithBinary())
	}
	sdk, err := client.New(base, opts...)
	if err != nil {
		return err
	}

	names := loadgen.ScenarioNames
	if c.scenario != "all" {
		names = []string{c.scenario}
	}
	rep := &loadgen.Report{
		Tool:      "cmd/loadgen",
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
		Binary:    c.binary,
	}
	ctx := context.Background()
	var failed int64
	for _, name := range names {
		wl, err := loadgen.ByName(name, c.scenarioConfig())
		if err != nil {
			return err
		}
		if err := wl.Setup(ctx, sdk); err != nil {
			return fmt.Errorf("%s setup: %w", name, err)
		}
		sr := &loadgen.ScenarioReport{Scenario: name}
		if c.mode == "both" || c.mode == "open" {
			outcome, err := loadgen.OpenLoop(ctx, wl, loadgen.OpenLoopConfig{
				Rate: c.rate, Duration: c.duration, MaxOutstanding: c.outstanding,
			})
			if err != nil {
				return fmt.Errorf("%s open loop: %w", name, err)
			}
			failed += outcome.ErrorTotal()
			sr.Results = append(sr.Results, loadgen.ResultOf(outcome))
			printResult(name, outcome)
		}
		if c.mode == "both" || c.mode == "closed" {
			outcome, err := loadgen.ClosedLoop(ctx, wl, loadgen.ClosedLoopConfig{
				Concurrency: c.concurrency, Duration: c.duration,
			})
			if err != nil {
				return fmt.Errorf("%s closed loop: %w", name, err)
			}
			failed += outcome.ErrorTotal()
			sr.Results = append(sr.Results, loadgen.ResultOf(outcome))
			printResult(name, outcome)
		}
		if closer, ok := wl.(io.Closer); ok {
			if err := closer.Close(); err != nil {
				return fmt.Errorf("%s close: %w", name, err)
			}
		}
		sum, err := wl.Summary(ctx)
		if err != nil {
			return fmt.Errorf("%s summary: %w", name, err)
		}
		sr.Summary = sum
		if sum.Rounds > 0 || sum.Trades > 0 {
			fmt.Printf("%-14s summary: %d rounds, %d trades, regret ratio %.4f, revenue %.1f, market profit %.1f\n",
				name, sum.Rounds, sum.Trades, sum.RegretRatio,
				sum.CumulativeRevenue, sum.MarketProfit)
		}
		rep.Scenarios = append(rep.Scenarios, sr)
	}

	if c.out != "" {
		if err := rep.WriteFile(c.out); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", c.out)
	}
	if c.smoke && failed > c.errBudget {
		return fmt.Errorf("smoke: %d failed ops exceed the error budget of %d", failed, c.errBudget)
	}
	return nil
}

func printResult(name string, o *loadgen.Outcome) {
	s := o.Latency.Summarize(1e3)
	extra := ""
	if o.Dropped > 0 {
		extra = fmt.Sprintf("  dropped %d", o.Dropped)
	}
	if n := o.ErrorTotal(); n > 0 {
		extra += fmt.Sprintf("  ERRORS %d %v", n, o.Errors)
	}
	fmt.Printf("%-14s %-6s  %9.0f units/s  %8.0f ops/s  p50 %8.1fµs  p99 %8.1fµs  p999 %8.1fµs%s\n",
		name, o.Mode,
		float64(o.Units)/o.Elapsed.Seconds(),
		float64(o.Issued)/o.Elapsed.Seconds(),
		s.P50, s.P99, s.P999, extra)
}
