// Command perfbench is the repository benchmark. It assembles brokerd the
// way `brokerd -data-dir` does — server.NewServer plus
// server.AttachPersistence over a journal in a fresh directory, with
// brokerd's default fsync policy, checkpoint interval and http.Server
// timeouts — runs it in-process behind a loopback listener, and drives it
// through the public client SDK with one of three paper-shaped workloads:
//
//   - accommodation (§V-B): Airbnb-shaped listings in city × room-type
//     streams under the log-linear model, reserve on, one round per SDK
//     call through the Flusher over JSON. The latency floor: fixed
//     per-call costs dominate.
//   - impression (§V-C): 32 Zipf-popular streams of 128-dim hashed CTR
//     vectors, no reserve, 64-round PriceBatch calls over the binary
//     codec. CPU-bound in the ellipsoid update.
//   - ratings (§V-A): one hosted market of MovieLens-rater owners with
//     tanh contracts, 64-trade TradeBatch calls over binary with dense
//     weights, queries drawn from a Zipf-popular pool larger than the
//     broker's quote cache. Wire-bound.
//
// Each run sets up the broker several times and reports the median set-up
// time, then runs a light and a loaded open-loop phase of fixed op counts
// at fixed rates, interleaved in cycles over the first half of the
// measured time, and a closed-loop phase with one caller per CPU over the
// second half that drains at its deadline. Every answer and the broker's
// books are checked.
// With -trace 1 the run records spans at the SDK, HTTP, handler and store
// boundaries, replays the recorded inputs through the layers below the
// handler, and reports per-layer metrics instead of end-to-end ones.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Run it through
// perfbench/run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload ratings --seed 3 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	start := time.Now()
	var (
		workload = flag.String("workload", "", "workload: accommodation, impression or ratings")
		seed     = flag.Uint64("seed", 1, "input seed; one seed always generates the same inputs")
		seconds  = flag.Int("seconds", 30, "measured seconds of one run")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		revision = flag.String("revision", "unknown", "source revision recorded in the header")
		workdir  = flag.String("workdir", "", "directory for the broker's journal (default: the system temp dir)")
		spansDir = flag.String("spans-dir", "", "directory the traced run writes its spans to (empty: not written)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}
	res, err := run(config{
		workload: *workload,
		seed:     *seed,
		seconds:  float64(*seconds),
		trace:    *trace == 1,
		revision: *revision,
		workdir:  *workdir,
		spansDir: *spansDir,
		sizes:    paperSizes,
		start:    start,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
