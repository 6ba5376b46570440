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

type throughputResult struct {
	Fsync        string  `json:"fsync"`
	Streams      int     `json:"streams"`
	Workers      int     `json:"workers"`
	DurationSec  float64 `json:"duration_sec"`
	Rounds       int64   `json:"rounds"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// Per-round latency over the window (one lookup + priced round, with
	// the checkpoint enqueue riding on the same shard lock).
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	// Group-commit shape over the window: how many records each shared
	// write (and fsync, under "always") carried.
	Commits          uint64  `json:"commits"`
	CommitRecords    uint64  `json:"commit_records"`
	RecordsPerCommit float64 `json:"records_per_commit"`
}

type recoveryResult struct {
	TotalStreams int `json:"total_streams"`
	DirtyStreams int `json:"dirty_streams"`
	// WALRecords is the journal tail replayed on top of the base
	// checkpoint — the part of recovery that scales with dirtiness.
	WALRecords int     `json:"wal_records"`
	RecoverMS  float64 `json:"recover_ms"`
}

type report struct {
	Tool       string `json:"tool"`
	GoVersion  string `json:"go_version"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// AlwaysOverNeverSlowdown is the acceptance headline: sustained
	// durable throughput under -fsync always as a slowdown factor over
	// -fsync never (target: ≤ ~2×).
	AlwaysOverNeverSlowdown float64            `json:"always_over_never_slowdown"`
	Throughput              []throughputResult `json:"throughput"`
	Recovery                []recoveryResult   `json:"recovery"`
}

func run(out string, duration time.Duration, streams, workers, total int, dirtySpec string) error {
	rep := report{
		Tool:       "cmd/durabilitybench",
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	var never float64
	for _, policy := range []store.FsyncPolicy{store.FsyncAlways, store.FsyncInterval, store.FsyncNever} {
		res, err := runThroughput(policy, duration, streams, workers)
		if err != nil {
			return fmt.Errorf("throughput %s: %w", policy, err)
		}
		rep.Throughput = append(rep.Throughput, res)
		if policy == store.FsyncNever {
			never = res.RoundsPerSec
		}
		fmt.Printf("throughput  fsync=%-8s  %9.0f rounds/s  p50 %6.1fµs  p99 %6.1fµs  (%d commits, %.1f records/commit)\n",
			res.Fsync, res.RoundsPerSec, res.P50Micros, res.P99Micros, res.Commits, res.RecordsPerCommit)
	}
	if never > 0 {
		rep.AlwaysOverNeverSlowdown = round3(never / rep.Throughput[0].RoundsPerSec)
		fmt.Printf("fsync=always slowdown over fsync=never: %.2fx\n", rep.AlwaysOverNeverSlowdown)
	}

	for _, field := range strings.Split(dirtySpec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return fmt.Errorf("bad -dirty entry %q: %w", field, err)
		}
		if n > total {
			n = total
		}
		res, err := runRecovery(total, n)
		if err != nil {
			return fmt.Errorf("recovery dirty=%d: %w", n, err)
		}
		rep.Recovery = append(rep.Recovery, res)
		fmt.Printf("recovery    total=%d dirty=%-5d  %7.1f ms  (%d WAL records replayed)\n",
			res.TotalStreams, res.DirtyStreams, res.RecoverMS, res.WALRecords)
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
// journal under sustained append load.
func runThroughput(policy store.FsyncPolicy, duration time.Duration, streams, workers int) (throughputResult, error) {
	dir, err := os.MkdirTemp("", "durabilitybench-*")
	if err != nil {
		return throughputResult{}, err
	}
	defer os.RemoveAll(dir)

	st, err := store.OpenJournal(store.JournalConfig{Dir: dir, Fsync: policy})
	if err != nil {
		return throughputResult{}, err
	}
	reg := server.NewRegistry(0)
	p, _, err := server.AttachPersistence(reg, st, server.PersistConfig{Interval: -1})
	if err != nil {
		st.Close()
		return throughputResult{}, err
	}
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%04d", i)
		if _, err := reg.Create(server.CreateStreamRequest{
			ID: ids[i], Family: "linear", Dim: 4, Reserve: true, Horizon: 10_000_000,
		}); err != nil {
			return throughputResult{}, err
		}
	}

	base := st.Stats()
	var (
		rounds int64
		lats   = histo.New()
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
	stats := st.Stats()
	if err := p.Shutdown(); err != nil {
		return throughputResult{}, err
	}

	sum := lats.Summarize(1e3)
	res := throughputResult{
		Fsync:         string(policy),
		Streams:       streams,
		Workers:       workers,
		DurationSec:   round3(elapsed.Seconds()),
		Rounds:        rounds,
		RoundsPerSec:  round3(float64(rounds) / elapsed.Seconds()),
		P50Micros:     sum.P50,
		P99Micros:     sum.P99,
		Commits:       stats.Commits - base.Commits,
		CommitRecords: stats.CommitRecords - base.CommitRecords,
	}
	if res.Commits > 0 {
		res.RecordsPerCommit = round3(float64(res.CommitRecords) / float64(res.Commits))
	}
	return res, nil
}

// runRecovery builds a journal whose base checkpoint holds `total`
// streams and whose WAL tail holds `dirty` delta records, crashes it
// without a final checkpoint, and times the reopen+replay.
func runRecovery(total, dirty int) (recoveryResult, error) {
	dir, err := os.MkdirTemp("", "durabilitybench-*")
	if err != nil {
		return recoveryResult{}, err
	}
	defer os.RemoveAll(dir)

	st, err := store.OpenJournal(store.JournalConfig{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		return recoveryResult{}, err
	}
	reg := server.NewRegistry(0)
	p, _, err := server.AttachPersistence(reg, st, server.PersistConfig{Interval: -1})
	if err != nil {
		st.Close()
		return recoveryResult{}, err
	}
	for i := 0; i < total; i++ {
		if _, err := reg.Create(server.CreateStreamRequest{
			ID: fmt.Sprintf("s%05d", i), Family: "linear", Dim: 4, Reserve: true, Horizon: 100000,
		}); err != nil {
			return recoveryResult{}, err
		}
	}
	// Fold every create into the base checkpoint, then dirty a subset so
	// exactly their deltas form the WAL tail recovery must replay.
	if err := p.Compact(); err != nil {
		return recoveryResult{}, err
	}
	rng := rand.New(rand.NewSource(42))
	x := make(linalg.Vector, 4)
	for i := 0; i < dirty; i++ {
		s, err := reg.Get(fmt.Sprintf("s%05d", i))
		if err != nil {
			return recoveryResult{}, err
		}
		for j := range x {
			x[j] = rng.Float64()
		}
		if _, _, err := s.Price(x, 0.1, 1.5); err != nil {
			return recoveryResult{}, err
		}
	}
	p.Checkpoint()
	// Crash: stop the persister and close the store with no final
	// checkpoint or compaction.
	p.Stop()
	if err := st.Close(); err != nil {
		return recoveryResult{}, err
	}

	start := time.Now()
	st2, err := store.OpenJournal(store.JournalConfig{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		return recoveryResult{}, err
	}
	reg2 := server.NewRegistry(0)
	p2 := server.NewPersister(reg2, st2, server.PersistConfig{Interval: -1})
	recovered, err := p2.Recover()
	elapsed := time.Since(start)
	if err != nil {
		return recoveryResult{}, err
	}
	if recovered != total {
		return recoveryResult{}, fmt.Errorf("recovered %d streams, want %d", recovered, total)
	}
	stats := st2.Stats()
	if err := st2.Close(); err != nil {
		return recoveryResult{}, err
	}
	return recoveryResult{
		TotalStreams: total,
		DirtyStreams: dirty,
		WALRecords:   stats.JournalRecords,
		RecoverMS:    round3(float64(elapsed) / float64(time.Millisecond)),
	}, nil
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}
