package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"datamarket/api"
	"datamarket/internal/store"
)

// graph links the spans of a traced run. Besides each span's parent it
// records, for the Flusher, which SDK calls each batch round trip
// carried: one round trip serves many calls, so it is a child of each.
type graph struct {
	spans   []span
	idx     map[uint64]int // span id → index
	kids    map[int][]int  // index → child indices
	carried map[int][]int  // hot http span → the sdk spans of the ops it carried, in body order
	carrier map[int]int    // sdk span → the first http span carrying it
	handler map[int]int    // http span → its handler span
}

// roundKey identifies a Flusher round inside a batch body.
type roundKey struct {
	stream    string
	valuation uint64 // float bits
}

// flusherKeyed is implemented by workloads that price through the
// Flusher: it names the round an op sends.
type flusherKeyed interface {
	flusherKey(op int) roundKey
}

func buildGraph(spans []span, fk flusherKeyed) (*graph, error) {
	g := &graph{
		spans: spans, idx: make(map[uint64]int, len(spans)), kids: make(map[int][]int),
		carried: make(map[int][]int), carrier: make(map[int]int), handler: make(map[int]int),
	}
	byReq := make(map[uint64]int)
	queues := make(map[roundKey][]int)
	var putSync, createHandlers []int
	for i := range spans {
		s := &spans[i]
		g.idx[s.ID] = i
		switch {
		case s.Kind == kindHandler:
			byReq[s.Req] = i
			if s.Path == "/v1/streams" {
				createHandlers = append(createHandlers, i)
			}
		case s.Kind == kindPut && s.Sync:
			putSync = append(putSync, i)
		case s.Kind == kindSDK && s.Op >= 0 && fk != nil:
			k := fk.flusherKey(s.Op)
			queues[k] = append(queues[k], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Kind != kindHTTP {
			continue
		}
		if h, ok := byReq[s.Req]; ok {
			g.handler[i] = h
			spans[h].Parent = s.ID
		}
		if p, ok := g.idx[s.Parent]; ok && spans[p].Kind == kindSDK && spans[p].Op >= 0 {
			g.carried[i] = []int{p}
		}
		if s.ReqBody == nil || fk == nil {
			continue
		}
		// A Flusher batch: match each round to the earliest unmatched call
		// with the same key whose span contains the round trip.
		var req api.MultiBatchPriceRequest
		if err := json.Unmarshal(s.ReqBody, &req); err != nil {
			return nil, fmt.Errorf("decoding a recorded batch: %w", err)
		}
		for _, rd := range req.Rounds {
			if rd.Valuation == nil {
				continue
			}
			k := roundKey{rd.StreamID, math.Float64bits(*rd.Valuation)}
			q := queues[k]
			for j, c := range q {
				if spans[c].Start <= s.Start && spans[c].End >= s.End {
					g.carried[i] = append(g.carried[i], c)
					queues[k] = append(q[:j:j], q[j+1:]...)
					break
				}
			}
		}
		if cs := g.carried[i]; len(cs) > 0 && s.Parent == 0 {
			first := cs[0]
			for _, c := range cs {
				if spans[c].Start < spans[first].Start {
					first = c
				}
			}
			s.Parent = spans[first].ID
		}
	}
	// A write-ahead Put runs inside the create handler that caused it.
	for _, p := range putSync {
		for _, h := range createHandlers {
			if spans[h].Start <= spans[p].Start && spans[p].End <= spans[h].End {
				spans[p].Parent = spans[h].ID
				break
			}
		}
	}
	for i := range spans {
		if p, ok := g.idx[spans[i].Parent]; ok && spans[i].Parent != 0 {
			g.kids[p] = append(g.kids[p], i)
		}
	}
	for h, cs := range g.carried {
		for _, c := range cs {
			if _, ok := g.carrier[c]; !ok || spans[h].Start < spans[g.carrier[c]].Start {
				g.carrier[c] = h
			}
			if spans[h].Parent != spans[c].ID {
				g.kids[c] = append(g.kids[c], h)
			}
		}
	}
	return g, nil
}

// nestingErrors lists children that do not lie inside their parent.
func (g *graph) nestingErrors() []string {
	var errs []string
	for p, ks := range g.kids {
		ps := &g.spans[p]
		for _, k := range ks {
			c := &g.spans[k]
			if c.Start < ps.Start || c.End > ps.End {
				errs = append(errs, fmt.Sprintf("%s span %d [%v, %v] outside its parent %s span %d [%v, %v]",
					c.Kind, c.ID, c.Start, c.End, ps.Kind, ps.ID, ps.Start, ps.End))
			}
		}
	}
	return errs
}

// self is a span's duration minus the part of it its children cover.
func (g *graph) self(i int) time.Duration {
	s := &g.spans[i]
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range g.kids[i] {
		c := &g.spans[k]
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var covered, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.dur() - covered
}

// hotRequest is one recorded hot round trip and the ops it carried.
type hotRequest struct {
	ops       []int
	req, resp []byte
}

// layerInputs is what the per-layer metrics are computed from.
type layerInputs struct {
	wl           workload
	spans        []span
	marks        marks
	books        books
	store        store.Stats
	journalBytes int64
	liveHeap     float64
	lags         []float64 // us, both open-loop phases
	traced       float64   // closed-loop throughput with tracing on
	untraced     float64   // and off
	runtime      runtimeCounters
	runtime0     runtimeCounters
	runtimeUnits int
}

// perLayer computes and prints the per-layer metrics of a traced run.
// Span metrics cover the fixed-count light and loaded phases.
func perLayer(out io.Writer, res *result, in layerInputs) error {
	fk, _ := in.wl.(flusherKeyed)
	g, err := buildGraph(in.spans, fk)
	if err != nil {
		return err
	}
	if errs := g.nestingErrors(); len(errs) > 0 {
		return fmt.Errorf("trace: %d spans outside their parent, first: %s", len(errs), errs[0])
	}
	inFixed := func(s *span) bool { return s.Start >= in.marks.light && s.Start < in.marks.loadedEnd }
	inLoaded := func(s *span) bool { return s.Start >= in.marks.loaded && s.Start < in.marks.loadedEnd }

	var (
		wait, self, transit, handler []float64
		reqBytes, respBytes          int64
		fixedUnits, loadedUnits      int
		loadedRequests               int
		checkpoints, puts            []float64
		warmReqs, fixedReqs          []hotRequest
	)
	for i := range g.spans {
		s := &g.spans[i]
		switch s.Kind {
		case kindSDK:
			if s.Op < 0 || !inFixed(s) {
				continue
			}
			if h, ok := g.carrier[i]; ok {
				wait = append(wait, us(g.spans[h].Start-s.Start))
			}
			self = append(self, us(g.self(i)))
		case kindHTTP:
			cs, ok := g.carried[i]
			if !ok {
				continue
			}
			units := 0
			for _, c := range cs {
				units += g.spans[c].Units
			}
			ops := make([]int, len(cs))
			for k, c := range cs {
				ops[k] = g.spans[c].Op
			}
			rec := hotRequest{ops: ops, req: s.ReqBody, resp: s.RespBody}
			if s.Start < in.marks.light {
				warmReqs = append(warmReqs, rec)
				continue
			}
			if !inFixed(s) {
				continue
			}
			fixedReqs = append(fixedReqs, rec)
			fixedUnits += units
			reqBytes += s.ReqBytes
			respBytes += s.RespBytes
			if h, ok := g.handler[i]; ok {
				transit = append(transit, us(s.dur()-g.spans[h].dur()))
				handler = append(handler, us(g.spans[h].dur()))
			}
			if inLoaded(s) {
				loadedRequests++
				loadedUnits += units
			}
		case kindCheckpoint:
			if s.Start >= in.marks.light && s.Start < in.marks.closedEnd {
				checkpoints = append(checkpoints, float64(s.dur())/float64(time.Millisecond))
			}
		case kindPut:
			if s.Sync {
				puts = append(puts, us(s.dur()))
			}
		}
	}

	fmt.Fprintf(out, "trace: %d spans, %d hot requests in the fixed-count phases\n", len(g.spans), len(fixedReqs))
	lt, err := in.wl.replay(warmReqs, fixedReqs)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	fmt.Fprintln(out, "per-layer metrics:")
	p := percentile(wait, 0.5)
	res.put(out, "client.flusher_wait_p50_us", p.value, "us", "call to the start of the round trip carrying it; "+p.note())
	res.put(out, "client.units_per_request", float64(loadedUnits)/float64(loadedRequests), "count",
		fmt.Sprintf("%d requests of the loaded phase", loadedRequests))
	p = percentile(self, 0.5)
	res.put(out, "client.self_p50_us", p.value, "us", "SDK call minus its round trips; "+p.note())
	p = percentile(transit, 0.5)
	res.put(out, "client.transit_p50_us", p.value, "us", "round trip minus handler; "+p.note())
	p = percentile(transit, 0.99)
	res.put(out, "client.transit_p99_us", p.value, "us", p.note())
	res.put(out, "api.req_bytes_per_unit", float64(reqBytes)/float64(fixedUnits), "B", "")
	res.put(out, "api.resp_bytes_per_unit", float64(respBytes)/float64(fixedUnits), "B", "")
	res.put(out, "api.decode_ns_per_unit", lt.decode/float64(lt.codecUnits), "ns",
		fmt.Sprintf("replayed over %d %s", lt.codecUnits, in.wl.unit()))
	res.put(out, "api.encode_ns_per_unit", lt.encode/float64(lt.codecUnits), "ns", "")
	p = percentile(handler, 0.5)
	res.put(out, "server.handler_p50_us", p.value, "us", p.note())
	p = percentile(handler, 0.99)
	res.put(out, "server.handler_p99_us", p.value, "us", p.note())
	res.put(out, "pricing.round_ns", lt.pricing/float64(lt.rounds), "ns", fmt.Sprintf("replayed over %d rounds", lt.rounds))
	res.put(out, "pricing.cut_share", float64(in.books.cuts)/float64(in.books.mechRuns), "ratio",
		fmt.Sprintf("of %d mechanism rounds", in.books.mechRuns))
	res.put(out, "pricing.skip_share", float64(in.books.skips)/float64(in.books.mechRuns), "ratio", "")
	res.put(out, "market.trade_ns", lt.market/float64(lt.trades), "ns", fmt.Sprintf("replayed over %d trades", lt.trades))
	res.put(out, "market.repeat_query_share", lt.repeatShare, "ratio", "trades whose query was sent before")
	p = percentile(checkpoints, 0.5)
	res.put(out, "store.checkpoint_p50_ms", p.value, "ms", "first delta enqueued to the compaction check; "+p.note())
	window := (in.marks.loadedEnd - in.marks.light).Seconds()
	res.put(out, "store.journal_bytes_per_s", float64(in.journalBytes)/window, "B/s", "")
	p = percentile(puts, 0.5)
	res.put(out, "store.put_p50_us", p.value, "us", "write-ahead creates; "+p.note())
	res.put(out, "store.commit_wait_us", 1000*in.store.CommitWaitMS/float64(in.store.CommitRecords), "us",
		fmt.Sprintf("per record over %d records", in.store.CommitRecords))
	res.put(out, "store.records_per_commit", float64(in.store.CommitRecords)/float64(in.store.Commits), "count", "")
	rt, rt0 := in.runtime, in.runtime0
	n := float64(in.runtimeUnits)
	res.put(out, "runtime.alloc_bytes_per_unit", (rt.allocBytes-rt0.allocBytes)/n, "B", "untraced closed loop")
	res.put(out, "runtime.allocs_per_unit", (rt.allocs-rt0.allocs)/n, "count", "")
	res.put(out, "runtime.gc_cpu_share", (rt.gcCPU-rt0.gcCPU)/(rt.totalCPU-rt0.totalCPU), "ratio", "of the CPU available")
	res.put(out, "runtime.live_heap_mib", in.liveHeap/(1<<20), "MiB", "after the fixed-count phases")
	p = percentile(in.lags, 0.99)
	res.put(out, "bench.send_lag_p99_us", p.value, "us", p.note())
	res.put(out, "bench.trace_overhead_share", 1-in.traced/in.untraced, "ratio",
		fmt.Sprintf("closed loop %.1f traced vs %.1f untraced %s/s", in.traced, in.untraced, in.wl.unit()))
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
