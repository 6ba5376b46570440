package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tally counts one phase's ops.
type tally struct {
	attempted int
	failed    int
	units     int
	why       string // first failure
}

func (t *tally) add(r opResult) {
	t.attempted++
	t.units += r.units
	if r.failed {
		t.failed++
		if t.why == "" {
			t.why = r.why
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.units += o.units
	if t.why == "" {
		t.why = o.why
	}
}

// openPhase is one open-loop phase: op i is due at start + i/rate and is
// timed from when it was due, so a stall also charges the ops queued
// behind it.
type openPhase struct {
	tally
	latency []time.Duration // per op, from its due time
	lag     []time.Duration // per op: how late the generator sent it
	elapsed time.Duration
}

// callerPool holds a session's idle callers for its open-loop phases,
// so the phases share request buffers instead of allocating them when
// load rises. It also bounds the ops in flight: an op due while all of
// them are busy waits for one, and its latency still counts from its due
// time. The transport opens one connection per CPU, so ops past a few
// per connection would only wait inside it, holding their request
// buffers; the bound keeps a stall from growing the process by
// megabytes per queued op.
type callerPool struct {
	wl   workload
	s    *session
	free chan caller
	made int
}

// prefillCallers callers are made before the first open-loop phase.
const prefillCallers = 4

func newCallerPool(wl workload, s *session, maxOut int) *callerPool {
	p := &callerPool{wl: wl, s: s, free: make(chan caller, maxOut)} // room for every caller that can exist
	for ; p.made < min(prefillCallers, maxOut); p.made++ {
		p.free <- wl.newCaller(s)
	}
	return p
}

// get returns an idle caller, making one while fewer than the in-flight
// bound exist and waiting for one otherwise.
func (p *callerPool) get() caller {
	select {
	case c := <-p.free:
		return c
	default:
	}
	if p.made == cap(p.free) {
		return <-p.free
	}
	p.made++
	return p.wl.newCaller(p.s)
}

// extend appends a later slice of the same phase.
func (ph *openPhase) extend(o *openPhase) {
	ph.merge(o.tally)
	ph.latency = append(ph.latency, o.latency...)
	ph.lag = append(ph.lag, o.lag...)
	ph.elapsed += o.elapsed
}

// openLoop sends ops first..first+n−1 at rate.
func openLoop(ctx context.Context, pool *callerPool, first, n int, rate float64) *openPhase {
	ph := &openPhase{lag: make([]time.Duration, n)}
	results := make([]opResult, n)
	latency := make([]time.Duration, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		cl := pool.get()
		ph.lag[i] = time.Since(due)
		wg.Add(1)
		go func(i int, cl caller, due time.Time) {
			defer wg.Done()
			results[i] = cl.issue(ctx, first+i)
			latency[i] = time.Since(due)
			pool.free <- cl
		}(i, cl, due)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	for _, r := range results {
		ph.add(r)
	}
	ph.latency = latency
	return ph
}

// closedPhase is one closed-loop phase.
type closedPhase struct {
	tally
	elapsed time.Duration // until the last in-flight op returned
}

// rate is the phase's completed units per second.
func (ph *closedPhase) rate() float64 { return float64(ph.units) / ph.elapsed.Seconds() }

// closedLoop runs callers that each send their next op as soon as the
// previous one returns, taking op indices from next, for d. At the
// deadline callers stop issuing and every in-flight op completes — no
// call is cancelled, so the broker never prices a round the client does
// not count. With d == 0 the loop instead stops after count ops.
func closedLoop(ctx context.Context, wl workload, s *session, callers int, d time.Duration, count int, next func(k int) int) *closedPhase {
	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		issued atomic.Int64
	)
	ph := &closedPhase{}
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := wl.newCaller(s)
			var t tally
			for {
				if d > 0 && !time.Now().Before(deadline) {
					break
				}
				k := int(issued.Add(1) - 1)
				if d == 0 && k >= count {
					break
				}
				t.add(cl.issue(ctx, next(k)))
			}
			mu.Lock()
			ph.merge(t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
