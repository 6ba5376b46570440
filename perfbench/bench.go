package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"runtime"
	"time"
)

// setupReps is how many times a run sets the broker up; set-up time is
// reported as their median and the last set-up carries the timed phases.
// A set-up ends when its warm-up does; the wait that lines the phases up
// with the checkpoint clock is not part of it.
const setupReps = 9

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	revision string
	workdir  string
	spansDir string
	sizes    sizes
	start    time.Time // process start: the first set-up is timed from it
}

// plan fixes a run's op counts and phase lengths. The open-loop phases
// have fixed op counts, so regret and memory are read after the same work
// on every run. They share the first half of the measured seconds, cut
// into cycles of a light slice (a third of the cycle) followed by a
// loaded slice (two thirds), so each phase samples the machine across the
// whole half rather than in one stretch that a busy neighbour on a shared
// host can cover. The closed-loop phase takes the second half. Cycles are
// laid out on the broker's checkpoint clock, which starts when
// persistence attaches: at the benchmark's 30 seconds a cycle is one
// default checkpoint interval, every checkpoint pass of the open-loop
// half falls in the middle of a loaded slice, and the closed-loop phase
// holds exactly three passes.
type plan struct {
	lead                time.Duration // from attach to the first cycle
	warm, light, loaded int           // op counts
	fixed               int           // warm + light + loaded
	ring                int
	cycles              int
	cycle               time.Duration
	closed              time.Duration
}

// openCycles is how many cycles the open-loop half is cut into.
const openCycles = 3

func newPlan(sh shape, seconds float64) plan {
	cycle := seconds / 2 / openCycles
	p := plan{
		lead:   time.Duration(cycle / 3 * float64(time.Second)),
		warm:   sh.warmup,
		light:  max(1, int(math.Round(sh.lightRate*seconds/6))),
		loaded: max(1, int(math.Round(sh.loadedRate*seconds/3))),
		ring:   sh.ring,
		cycles: openCycles,
		cycle:  time.Duration(cycle * float64(time.Second)),
		closed: time.Duration(seconds / 2 * float64(time.Second)),
	}
	p.fixed = p.warm + p.light + p.loaded
	return p
}

// rig is one set-up: generated inputs, a broker, and its SDK sessions.
type rig struct {
	wl    workload
	b     *broker
	main  *session // traced in a trace run
	plain *session // trace runs: the untraced session of the overhead comparison
	tps   []*http.Transport
}

func setUp(ctx context.Context, cfg config, pl plan, conns int, tr *tracer) (*rig, tally, error) {
	wl, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, tally{}, err
	}
	if err := wl.generate(cfg.seed, cfg.sizes, pl.fixed+pl.ring); err != nil {
		return nil, tally{}, fmt.Errorf("generating inputs: %w", err)
	}
	b, err := startBroker(cfg.workdir, tr)
	if err != nil {
		return nil, tally{}, err
	}
	rg := &rig{wl: wl, b: b}
	s, tp, err := newSession(b, wl, conns, tr)
	if err != nil {
		return nil, tally{}, errors.Join(err, rg.close())
	}
	rg.main, rg.tps = s, append(rg.tps, tp)
	if tr != nil {
		if rg.plain, tp, err = newSession(b, wl, conns, nil); err != nil {
			return nil, tally{}, errors.Join(err, rg.close())
		}
		rg.tps = append(rg.tps, tp)
	}
	if err := wl.provision(ctx, s); err != nil {
		return nil, tally{}, errors.Join(err, rg.close())
	}
	warm := closedLoop(ctx, wl, s, wl.shape().warmCalls, 0, pl.warm, func(k int) int { return k })
	return rg, warm.tally, nil
}

func (rg *rig) close() error {
	for _, s := range []*session{rg.main, rg.plain} {
		if s != nil {
			s.flusher.Close()
		}
	}
	for _, tp := range rg.tps {
		tp.CloseIdleConnections()
	}
	return rg.b.close()
}

// checkBooks reads the broker's books and checks them against the units
// the client counted.
func (rg *rig) checkBooks(ctx context.Context, units int) (books, error) {
	bk, err := rg.wl.books(ctx, rg.main.c)
	if err != nil {
		return bk, fmt.Errorf("books: %w", err)
	}
	if bk.rounds != units {
		return bk, fmt.Errorf("books: the broker counted %d %s, the client %d", bk.rounds, rg.wl.unit(), units)
	}
	if r := bk.regret / bk.value; !(r >= 0 && r <= 1) {
		return bk, fmt.Errorf("books: regret ratio %v outside [0, 1]", r)
	}
	return bk, nil
}

// marks are phase boundaries on the tracer's clock.
type marks struct {
	light, loaded, loadedEnd, closed, closedEnd time.Duration
}

func run(cfg config, out io.Writer) (res *result, err error) {
	wl, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	sh := wl.shape()
	pl := newPlan(sh, cfg.seconds)
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "go=%s GOMAXPROCS=%d NumCPU=%d revision=%s connections<=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), nproc, cfg.revision, nproc)
	ctx := context.Background()

	var tr *tracer
	reps := setupReps
	if cfg.trace {
		tr, reps = newTracer(), 1
	}
	var (
		all    tally
		units  int
		setups []float64
		rg     *rig
	)
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = cfg.start
		}
		r, warm, err := setUp(ctx, cfg, pl, nproc, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		all.merge(warm)
		if rep == reps-1 {
			rg, units = r, warm.units
		} else if err := r.close(); err != nil {
			return nil, err
		}
	}
	closed := false
	defer func() {
		if !closed {
			err = errors.Join(err, rg.close())
		}
	}()
	wl = rg.wl
	h := fnv.New64a()
	wl.digest(h)
	fmt.Fprintf(out, "input digest %016x: %d warm-up, %d light, %d loaded ops, closed-loop ring of %d\n",
		h.Sum64(), pl.warm, pl.light, pl.loaded, pl.ring)
	fmt.Fprintf(out, "set-up %v s (median of %d)\n", fmtFloats(setups), len(setups))

	var mk marks
	mark := func() time.Duration {
		if tr == nil {
			return 0
		}
		return tr.now()
	}
	pool := newCallerPool(wl, rg.main, sh.maxOut)
	// A traced run keeps the open-loop phases in one stretch each: its
	// per-layer metrics tell them apart by their time marks.
	cycles := pl.cycles
	if cfg.trace {
		cycles = 1
	}
	cycle := pl.cycle * time.Duration(pl.cycles) / time.Duration(cycles)
	t0 := rg.b.attached.Add(pl.lead)
	time.Sleep(time.Until(t0))
	journal0 := rg.journalWritten(tr)
	light, loaded := &openPhase{}, &openPhase{}
	for c := 0; c < cycles; c++ {
		at := t0.Add(time.Duration(c) * cycle)
		time.Sleep(time.Until(at))
		if c == 0 {
			mk.light = mark()
		}
		lo, hi := c*pl.light/cycles, (c+1)*pl.light/cycles
		light.extend(openLoop(ctx, pool, pl.warm+lo, hi-lo, sh.lightRate))
		time.Sleep(time.Until(at.Add(cycle / 3)))
		if c == 0 {
			mk.loaded = mark()
		}
		lo, hi = c*pl.loaded/cycles, (c+1)*pl.loaded/cycles
		loaded.extend(openLoop(ctx, pool, pl.warm+pl.light+lo, hi-lo, sh.loadedRate))
	}
	mk.loadedEnd = mark()
	journal1 := rg.journalWritten(tr)
	printOpen(out, "light", light, sh.lightRate)
	printOpen(out, "loaded", loaded, sh.loadedRate)
	all.merge(light.tally)
	all.merge(loaded.tally)
	units += light.units + loaded.units
	bk, err := rg.checkBooks(ctx, units)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMiB()
	heap := readRuntime().liveHeap
	storeStats := rg.b.journal.Stats()

	ring := func(k int) int { return pl.fixed + k%pl.ring }
	time.Sleep(time.Until(t0.Add(pl.cycle * time.Duration(pl.cycles))))
	cpu0 := cpuTime()
	mk.closed = mark()
	cl := closedLoop(ctx, wl, rg.main, nproc, pl.closed, 0, ring)
	mk.closedEnd = mark()
	cpu := cpuTime() - cpu0
	printClosed(out, "closed", cl, nproc, wl.unit())
	all.merge(cl.tally)
	units += cl.units

	var plain *closedPhase
	var rt0, rt1 runtimeCounters
	if cfg.trace {
		tr.on.Store(false)
		rt0 = readRuntime()
		plain = closedLoop(ctx, wl, rg.plain, nproc, pl.closed, 0, func(k int) int { return ring(cl.attempted + k) })
		rt1 = readRuntime()
		printClosed(out, "closed-untraced", plain, nproc, wl.unit())
		all.merge(plain.tally)
		units += plain.units
	}
	if _, err := rg.checkBooks(ctx, units); err != nil {
		return nil, err
	}
	closed = true
	if err := rg.close(); err != nil {
		return nil, err
	}

	res = &result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(out, "failed_share %.6f ratio (%d of %d ops failed", float64(all.failed)/float64(all.attempted), all.failed, all.attempted)
	if all.why != "" {
		fmt.Fprintf(out, "; first: %s", all.why)
	}
	fmt.Fprintln(out, ")")
	if !cfg.trace {
		fmt.Fprintln(out, "end-to-end metrics:")
		lightP := micros(light.latency)
		loadedP := micros(loaded.latency)
		res.put(out, "setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
		res.put(out, "throughput_units_per_s", cl.rate(), "units/s", fmt.Sprintf("%s/s in the closed loop", wl.unit()))
		lightP50, loadedP50 := percentile(lightP, 0.5), percentile(loadedP, 0.5)
		res.put(out, "light_p50_us", lightP50.value, "us", lightP50.note())
		res.put(out, "loaded_p50_us", loadedP50.value, "us", loadedP50.note())
		res.put(out, "regret_ratio", bk.regret/bk.value, "ratio", fmt.Sprintf("after %d %s", bk.rounds, wl.unit()))
		res.put(out, "cpu_us_per_unit", float64(cpu)/float64(time.Microsecond)/float64(cl.units), "us",
			fmt.Sprintf("%v of CPU over %d %s", cpu.Round(time.Millisecond), cl.units, wl.unit()))
		res.put(out, "peak_rss_mib", rss, "MiB", "after the fixed-count phases")
		// The tails are reported but not part of the result line: on a
		// small shared machine their run-to-run spread is several times
		// the largest regression bound a metric may carry.
		fmt.Fprintln(out, "also reported, not gated:")
		for _, p := range []struct {
			name    string
			samples []float64
		}{{"light_p99_us", lightP}, {"loaded_p99_us", loadedP}} {
			v := percentile(p.samples, 0.99)
			fmt.Fprintf(out, "  %-32s %14.4f us  (%s)\n", p.name, v.value, v.note())
		}
		return res, nil
	}

	in := layerInputs{
		wl: wl, spans: tr.snapshot(), marks: mk, books: bk, store: storeStats,
		journalBytes: journal1 - journal0, liveHeap: heap,
		lags:   micros(append(append([]time.Duration(nil), light.lag...), loaded.lag...)),
		traced: cl.rate(), untraced: plain.rate(),
		runtime: rt1, runtime0: rt0, runtimeUnits: plain.units,
	}
	if cfg.spansDir != "" {
		path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", cfg.spansDir, cfg.workload, cfg.seed)
		if err := writeSpans(path, in.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "wrote %d spans to %s\n", len(in.spans), path)
	}
	if err := perLayer(out, res, in); err != nil {
		return nil, err
	}
	return res, nil
}

// journalWritten is the bytes appended to the journal so far: the live
// tail plus every tail compaction folded away (trace runs only).
func (rg *rig) journalWritten(tr *tracer) int64 {
	if tr == nil {
		return 0
	}
	return tr.compacted.Load() + rg.b.journal.Stats().JournalBytes
}

func printOpen(out io.Writer, name string, ph *openPhase, rate float64) {
	lat := micros(ph.latency)
	p50, p99 := percentile(lat, 0.5), percentile(lat, 0.99)
	lag := percentile(micros(ph.lag), 0.99)
	fmt.Fprintf(out, "%s: %d ops at %g/s in %.2fs, %d failed; latency p50 %.1fus, p99 %.1fus (%s); send lag p99 %.1fus\n",
		name, ph.attempted, rate, ph.elapsed.Seconds(), ph.failed, p50.value, p99.value, p99.note(), lag.value)
}

func printClosed(out io.Writer, name string, ph *closedPhase, callers int, unit string) {
	fmt.Fprintf(out, "%s: %d callers, %d ops, %d %s in %.2fs (drained), %d failed; %.1f %s/s\n",
		name, callers, ph.attempted, ph.units, unit, ph.elapsed.Seconds(), ph.failed, ph.rate(), unit)
}

func fmtFloats(vs []float64) string {
	s := "["
	for i, v := range vs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", v)
	}
	return s + "]"
}
