// Command durabilitybench measures the durability stack end to end and
// emits BENCH_durability.json, the tracked perf artifact for the
// segmented WAL (`make bench-durability` regenerates it).
//
// Two experiments:
//
//   - Throughput: concurrent pricing workers drive a persistent registry
//     while a checkpointer loop appends dirty-stream deltas, once per
//     fsync policy. The headline ratio is always/never — group commit is
//     what keeps the strictest policy within ~2× of no syncing at all,
//     because checkpoint enqueues happen under the shard lock while the
//     fsync itself runs on the store's committer goroutine.
//
//   - Recovery: a populated journal (total streams folded into the base
//     checkpoint, a varying number of dirty-stream deltas in the WAL
//     tail) is crashed without a final checkpoint and reopened. Replay
//     work scales with the WAL tail (the dirty count), not the total
//     stream count, and shard-parallel restore absorbs the rest.
//
// Every row is measured five times, one run of each row per repetition,
// and reports the median and quartiles of its runs; the headline ratio
// is taken from the medians.
//
// Usage:
//
//	durabilitybench -out BENCH_durability.json -duration 400ms \
//	    -streams 64 -workers 8 -total 1000 -dirty 0,10,100,1000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datamarket/internal/histo"
	"datamarket/internal/linalg"
	"datamarket/internal/server"
	"datamarket/internal/stats"
	"datamarket/internal/store"
)

func main() {
	var (
		out      = flag.String("out", "BENCH_durability.json", "output JSON path")
		duration = flag.Duration("duration", 400*time.Millisecond, "measured window per fsync policy")
		streams  = flag.Int("streams", 64, "streams under load in the throughput experiment")
		workers  = flag.Int("workers", 8, "concurrent pricing workers")
		total    = flag.Int("total", 1000, "total streams in the recovery experiment")
		dirty    = flag.String("dirty", "0,10,100,1000", "comma-separated dirty-stream counts for the recovery experiment")
	)
	flag.Parse()

	if err := run(*out, *duration, *streams, *workers, *total, *dirty); err != nil {
		fmt.Fprintln(os.Stderr, "durabilitybench:", err)
		os.Exit(1)
	}
}

// runs is how many times each throughput and recovery row is measured.
// Each repetition cycles through the fsync policies (and the dirty
// counts), so drift of the host spreads across every row alike.
const runs = 5

// spread is one metric over the runs of a row: its median and quartiles,
// by linear interpolation between order statistics.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func spreadOf(xs []float64) spread {
	return spread{
		Median: round3(stats.Quantile(xs, 0.5)),
		Q1:     round3(stats.Quantile(xs, 0.25)),
		Q3:     round3(stats.Quantile(xs, 0.75)),
	}
}

type throughputResult struct {
	Fsync   string `json:"fsync"`
	Streams int    `json:"streams"`
	Workers int    `json:"workers"`
	// DurationSec is the measured window of each run.
	DurationSec  float64 `json:"duration_sec"`
	RoundsPerSec spread  `json:"rounds_per_sec"`
	// Per-round latency over every run's window (one lookup + priced
	// round, with the checkpoint enqueue riding on the same shard lock).
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	// Group-commit shape: how many records each shared write (and fsync,
	// under "always") carried.
	RecordsPerCommit spread `json:"records_per_commit"`
}

type recoveryResult struct {
	TotalStreams int `json:"total_streams"`
	DirtyStreams int `json:"dirty_streams"`
	// WALRecords is the journal tail replayed on top of the base
	// checkpoint — the part of recovery that scales with dirtiness.
	WALRecords int    `json:"wal_records"`
	RecoverMS  spread `json:"recover_ms"`
}

type report struct {
	Tool       string `json:"tool"`
	GoVersion  string `json:"go_version"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Runs       int    `json:"runs"`
	// AlwaysOverNeverSlowdown is the acceptance headline: the median
	// sustained durable throughput under -fsync never over that under
	// -fsync always, as a slowdown factor (target: ≤ ~2×).
	AlwaysOverNeverSlowdown float64            `json:"always_over_never_slowdown"`
	Throughput              []throughputResult `json:"throughput"`
	Recovery                []recoveryResult   `json:"recovery"`
}

func run(out string, duration time.Duration, streams, workers, total int, dirtySpec string) error {
	var dirties []int
	for _, field := range strings.Split(dirtySpec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return fmt.Errorf("bad -dirty entry %q: %w", field, err)
		}
		dirties = append(dirties, min(n, total))
	}
	rep := report{
		Tool:       "cmd/durabilitybench",
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Runs:       runs,
	}

	policies := []store.FsyncPolicy{store.FsyncAlways, store.FsyncInterval, store.FsyncNever}
	rates := make([][]float64, len(policies))
	perCommit := make([][]float64, len(policies))
	lats := make([]*histo.Histogram, len(policies))
	for k := range lats {
		lats[k] = histo.New()
	}
	for r := 1; r <= runs; r++ {
		for k, policy := range policies {
			rate, rpc, err := runThroughput(policy, duration, streams, workers, lats[k])
			if err != nil {
				return fmt.Errorf("throughput %s: %w", policy, err)
			}
			rates[k], perCommit[k] = append(rates[k], rate), append(perCommit[k], rpc)
			fmt.Printf("run %d  throughput  fsync=%-8s  %9.0f rounds/s  (%.1f records/commit)\n", r, policy, rate, rpc)
		}
	}
	for k, policy := range policies {
		sum := lats[k].Summarize(1e3)
		t := throughputResult{
			Fsync:            string(policy),
			Streams:          streams,
			Workers:          workers,
			DurationSec:      duration.Seconds(),
			RoundsPerSec:     spreadOf(rates[k]),
			P50Micros:        sum.P50,
			P99Micros:        sum.P99,
			RecordsPerCommit: spreadOf(perCommit[k]),
		}
		rep.Throughput = append(rep.Throughput, t)
		fmt.Printf("throughput  fsync=%-8s  median %9.0f rounds/s [q1 %.0f, q3 %.0f]  p50 %6.1fµs  p99 %6.1fµs  %.1f records/commit\n",
			t.Fsync, t.RoundsPerSec.Median, t.RoundsPerSec.Q1, t.RoundsPerSec.Q3, t.P50Micros, t.P99Micros, t.RecordsPerCommit.Median)
	}
	if always := rep.Throughput[0].RoundsPerSec.Median; always > 0 {
		rep.AlwaysOverNeverSlowdown = round3(rep.Throughput[2].RoundsPerSec.Median / always)
		fmt.Printf("fsync=always slowdown over fsync=never: %.2fx\n", rep.AlwaysOverNeverSlowdown)
	}

	recoverMS := make([][]float64, len(dirties))
	walRecords := make([]int, len(dirties))
	for r := 1; r <= runs; r++ {
		for k, dirty := range dirties {
			records, ms, err := runRecovery(total, dirty)
			if err != nil {
				return fmt.Errorf("recovery dirty=%d: %w", dirty, err)
			}
			walRecords[k], recoverMS[k] = records, append(recoverMS[k], ms)
			fmt.Printf("run %d  recovery    total=%d dirty=%-5d  %7.1f ms  (%d WAL records replayed)\n", r, total, dirty, ms, records)
		}
	}
	for k, dirty := range dirties {
		rec := recoveryResult{
			TotalStreams: total,
			DirtyStreams: dirty,
			WALRecords:   walRecords[k],
			RecoverMS:    spreadOf(recoverMS[k]),
		}
		rep.Recovery = append(rep.Recovery, rec)
		fmt.Printf("recovery    total=%d dirty=%-5d  median %7.1f ms [q1 %.1f, q3 %.1f]\n",
			total, dirty, rec.RecoverMS.Median, rec.RecoverMS.Q1, rec.RecoverMS.Q3)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// runThroughput drives concurrent pricing rounds against a persistent
// registry for one measured window while a checkpointer loop keeps the
// journal under sustained append load. It records each round's latency
// into lats and returns the rounds per second and the records each
// commit carried.
func runThroughput(policy store.FsyncPolicy, duration time.Duration, streams, workers int, lats *histo.Histogram) (roundsPerSec, recordsPerCommit float64, err error) {
	dir, err := os.MkdirTemp("", "durabilitybench-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)

	st, err := store.OpenJournal(store.JournalConfig{Dir: dir, Fsync: policy})
	if err != nil {
		return 0, 0, err
	}
	reg := server.NewRegistry(0)
	p, _, err := server.AttachPersistence(reg, st, server.PersistConfig{Interval: -1})
	if err != nil {
		st.Close()
		return 0, 0, err
	}
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%04d", i)
		if _, err := reg.Create(server.CreateStreamRequest{
			ID: ids[i], Family: "linear", Dim: 4, Reserve: true, Horizon: 10_000_000,
		}); err != nil {
			return 0, 0, err
		}
	}

	base := st.Stats()
	var (
		rounds int64
		wg     sync.WaitGroup
		stop   = make(chan struct{})
		ckpt   = make(chan struct{})
	)
	go func() {
		defer close(ckpt)
		for {
			select {
			case <-stop:
				return
			default:
				p.Checkpoint()
			}
		}
	}()
	start := time.Now()
	deadline := start.Add(duration)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			x := make(linalg.Vector, 4)
			var n int64
			for time.Now().Before(deadline) {
				t0 := time.Now()
				s, err := reg.Get(ids[rng.Intn(len(ids))])
				if err != nil {
					return
				}
				for j := range x {
					x[j] = rng.Float64()
				}
				if _, _, err := s.Price(x, rng.Float64()*0.5, rng.Float64()*2); err != nil {
					return
				}
				lats.RecordDuration(time.Since(t0))
				n++
			}
			atomic.AddInt64(&rounds, n)
		}(int64(w) + 1)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	<-ckpt
	after := st.Stats()
	if err := p.Shutdown(); err != nil {
		return 0, 0, err
	}
	if commits := after.Commits - base.Commits; commits > 0 {
		recordsPerCommit = float64(after.CommitRecords-base.CommitRecords) / float64(commits)
	}
	return float64(rounds) / elapsed.Seconds(), recordsPerCommit, nil
}

// runRecovery builds a journal whose base checkpoint holds `total`
// streams and whose WAL tail holds `dirty` delta records, crashes it
// without a final checkpoint, and times the reopen+replay. It returns the
// WAL records replayed and the recovery time in milliseconds.
func runRecovery(total, dirty int) (walRecords int, recoverMS float64, err error) {
	dir, err := os.MkdirTemp("", "durabilitybench-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)

	st, err := store.OpenJournal(store.JournalConfig{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		return 0, 0, err
	}
	reg := server.NewRegistry(0)
	p, _, err := server.AttachPersistence(reg, st, server.PersistConfig{Interval: -1})
	if err != nil {
		st.Close()
		return 0, 0, err
	}
	for i := 0; i < total; i++ {
		if _, err := reg.Create(server.CreateStreamRequest{
			ID: fmt.Sprintf("s%05d", i), Family: "linear", Dim: 4, Reserve: true, Horizon: 100000,
		}); err != nil {
			return 0, 0, err
		}
	}
	// Fold every create into the base checkpoint, then dirty a subset so
	// exactly their deltas form the WAL tail recovery must replay.
	if err := p.Compact(); err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(42))
	x := make(linalg.Vector, 4)
	for i := 0; i < dirty; i++ {
		s, err := reg.Get(fmt.Sprintf("s%05d", i))
		if err != nil {
			return 0, 0, err
		}
		for j := range x {
			x[j] = rng.Float64()
		}
		if _, _, err := s.Price(x, 0.1, 1.5); err != nil {
			return 0, 0, err
		}
	}
	p.Checkpoint()
	// Crash: stop the persister and close the store with no final
	// checkpoint or compaction.
	p.Stop()
	if err := st.Close(); err != nil {
		return 0, 0, err
	}

	start := time.Now()
	st2, err := store.OpenJournal(store.JournalConfig{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		return 0, 0, err
	}
	reg2 := server.NewRegistry(0)
	p2 := server.NewPersister(reg2, st2, server.PersistConfig{Interval: -1})
	recovered, err := p2.Recover()
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	if recovered != total {
		return 0, 0, fmt.Errorf("recovered %d streams, want %d", recovered, total)
	}
	walRecords = st2.Stats().JournalRecords
	if err := st2.Close(); err != nil {
		return 0, 0, err
	}
	return walRecords, float64(elapsed) / float64(time.Millisecond), nil
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}
