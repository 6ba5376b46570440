package loadgen

import (
	"context"
	"fmt"
	"sync"
	"time"

	"datamarket/internal/histo"
)

// OpenLoopConfig tunes the target-rate driver.
type OpenLoopConfig struct {
	// Rate is the schedule rate in ops/s. Required.
	Rate float64
	// Duration is the schedule window; the driver issues
	// round(Rate×Duration) ops on an absolute schedule and then drains.
	Duration time.Duration
	// MaxOutstanding bounds in-flight ops (default 4096). A schedule
	// slot that finds the bound exhausted is counted as dropped rather
	// than making the schedule wait — the driver never lets a slow
	// server slow the arrival process down (coordinated omission).
	MaxOutstanding int
}

// OpenLoop drives wl at a fixed arrival rate. Op i is due at
// start + i/Rate regardless of how prior ops are faring, and latency is
// measured from that scheduled time, so response times include any
// queueing a saturated server causes.
func OpenLoop(ctx context.Context, wl Workload, cfg OpenLoopConfig) (*Outcome, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: open loop needs positive Rate, got %g", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: open loop needs positive Duration, got %v", cfg.Duration)
	}
	maxOut := cfg.MaxOutstanding
	if maxOut <= 0 {
		maxOut = 4096
	}
	out := &Outcome{
		Mode:        "open",
		TargetRate:  cfg.Rate,
		Concurrency: maxOut,
		Errors:      make(map[string]int64),
		Latency:     histo.New(),
	}
	n := int(cfg.Rate*cfg.Duration.Seconds() + 0.5)
	if n < 1 {
		n = 1
	}
	var (
		sem     = make(chan struct{}, maxOut)
		free    = make(chan Worker, maxOut) // pooled workers, created on demand
		workers int
		wg      sync.WaitGroup
		mu      sync.Mutex // guards out.Units and out.Errors
	)
	interval := float64(time.Second) / cfg.Rate
	start := time.Now()
schedule:
	for i := 0; i < n; i++ {
		sched := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(sched); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				break schedule
			}
		}
		select {
		case <-ctx.Done():
			break schedule
		default:
		}
		select {
		case sem <- struct{}{}:
		default:
			out.Dropped++
			continue
		}
		var w Worker
		select {
		case w = <-free:
		default:
			var err error
			if w, err = wl.NewWorker(workers); err != nil {
				return nil, fmt.Errorf("loadgen: minting worker %d: %w", workers, err)
			}
			workers++
		}
		out.Issued++
		wg.Add(1)
		go func(w Worker, sched time.Time) {
			defer func() {
				free <- w
				<-sem
				wg.Done()
			}()
			units, err := w.Issue(ctx)
			out.Latency.RecordDuration(time.Since(sched))
			mu.Lock()
			out.Units += int64(units)
			if err != nil {
				out.Errors[classify(err)]++
			}
			mu.Unlock()
		}(w, sched)
	}
	wg.Wait()
	out.Elapsed = time.Since(start)
	return out, nil
}

// ClosedLoopConfig tunes the fixed-concurrency driver.
type ClosedLoopConfig struct {
	// Concurrency is the number of workers issuing back-to-back.
	Concurrency int
	// Duration is how long workers keep issuing.
	Duration time.Duration
}

// ClosedLoop drives wl with Concurrency workers, each issuing the next
// op as soon as the previous one returns. Latency here is plain per-op
// service time; throughput is the natural saturation measure.
//
// Workers stop issuing at the deadline, and ops still in flight then
// finish on ctx: cancelling them would tear down rounds the server may
// already have priced, which the outcome would then never count.
func ClosedLoop(ctx context.Context, wl Workload, cfg ClosedLoopConfig) (*Outcome, error) {
	if cfg.Concurrency <= 0 {
		return nil, fmt.Errorf("loadgen: closed loop needs positive Concurrency, got %d", cfg.Concurrency)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: closed loop needs positive Duration, got %v", cfg.Duration)
	}
	out := &Outcome{
		Mode:        "closed",
		Concurrency: cfg.Concurrency,
		Errors:      make(map[string]int64),
		Latency:     histo.New(),
	}
	workers := make([]Worker, cfg.Concurrency)
	for i := range workers {
		w, err := wl.NewWorker(i)
		if err != nil {
			return nil, fmt.Errorf("loadgen: minting worker %d: %w", i, err)
		}
		workers[i] = w
	}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for _, w := range workers {
		wg.Add(1)
		go func(w Worker) {
			defer wg.Done()
			var issued, units int64
			errs := make(map[string]int64)
			for time.Now().Before(deadline) && ctx.Err() == nil {
				t0 := time.Now()
				u, err := w.Issue(ctx)
				if err != nil && ctx.Err() != nil && u == 0 {
					// The caller tore the op down mid-flight; don't count
					// the teardown as a served op or a server error.
					break
				}
				out.Latency.RecordDuration(time.Since(t0))
				issued++
				units += int64(u)
				if err != nil {
					errs[classify(err)]++
				}
			}
			mu.Lock()
			out.Issued += issued
			out.Units += units
			for k, v := range errs {
				out.Errors[k] += v
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	out.Elapsed = time.Since(start)
	return out, nil
}
