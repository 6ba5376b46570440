package server

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"datamarket/api"
)

// metricsBucketBoundsMS are the cumulative latency bucket bounds exposed
// by GET /v1/admin/metrics. They bracket the serving targets: the binary
// hot path sits under 0.25ms, JSON round trips near 1ms, and anything
// past 250ms is an outage-grade outlier.
var metricsBucketBoundsMS = [...]float64{0.25, 1, 4, 16, 64, 250, 1000}

// endpointCounters accumulates one route's traffic with atomics only, so
// recording on the serving path costs a handful of uncontended adds and
// scraping never blocks a request.
type endpointCounters struct {
	count    atomic.Uint64
	errors   atomic.Uint64
	sumNanos atomic.Int64
	maxNanos atomic.Int64
	buckets  [len(metricsBucketBoundsMS)]atomic.Uint64
}

func (c *endpointCounters) record(status int, elapsed time.Duration) {
	c.count.Add(1)
	if status < 200 || status > 299 {
		c.errors.Add(1)
	}
	ns := int64(elapsed)
	c.sumNanos.Add(ns)
	for {
		cur := c.maxNanos.Load()
		if ns <= cur || c.maxNanos.CompareAndSwap(cur, ns) {
			break
		}
	}
	ms := float64(ns) / float64(time.Millisecond)
	for i, bound := range metricsBucketBoundsMS {
		if ms <= bound {
			c.buckets[i].Add(1)
			break
		}
	}
}

// requestMetrics is the per-server registry of endpoint counters. The
// map is append-only and keyed by route pattern, so the read-lock fast
// path covers every request after the first one per route.
type requestMetrics struct {
	mu         sync.RWMutex
	byEndpoint map[string]*endpointCounters
}

func newRequestMetrics() *requestMetrics {
	return &requestMetrics{byEndpoint: make(map[string]*endpointCounters)}
}

func (m *requestMetrics) get(endpoint string) *endpointCounters {
	m.mu.RLock()
	c := m.byEndpoint[endpoint]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.byEndpoint[endpoint]; c == nil {
		c = &endpointCounters{}
		m.byEndpoint[endpoint] = c
	}
	return c
}

// snapshot renders the wire response, sorted by endpoint pattern.
func (m *requestMetrics) snapshot() api.MetricsResponse {
	m.mu.RLock()
	eps := make(map[string]*endpointCounters, len(m.byEndpoint))
	for k, v := range m.byEndpoint {
		eps[k] = v
	}
	m.mu.RUnlock()
	resp := api.MetricsResponse{Endpoints: make([]api.EndpointMetrics, 0, len(eps))}
	for name, c := range eps {
		em := api.EndpointMetrics{
			Endpoint:     name,
			Count:        c.count.Load(),
			Errors:       c.errors.Load(),
			LatencySumMS: round3(float64(c.sumNanos.Load()) / float64(time.Millisecond)),
			LatencyMaxMS: round3(float64(c.maxNanos.Load()) / float64(time.Millisecond)),
			Buckets:      make([]api.MetricsBucket, len(metricsBucketBoundsMS)),
		}
		var cum uint64
		for i, bound := range metricsBucketBoundsMS {
			cum += c.buckets[i].Load()
			em.Buckets[i] = api.MetricsBucket{LEMillis: bound, Count: cum}
		}
		resp.Endpoints = append(resp.Endpoints, em)
	}
	sort.Slice(resp.Endpoints, func(i, j int) bool {
		return resp.Endpoints[i].Endpoint < resp.Endpoints[j].Endpoint
	})
	return resp
}

func round3(v float64) float64 { return float64(int64(float64(v*1000)+0.5)) / 1000 }

// withMetrics records per-endpoint counters around the mux. Serving
// stores the matched route's pattern in r.Pattern, so path wildcards
// collapse into one metric per route; requests no route accepts (the
// mux's 404/405) leave it empty and are pooled under "unmatched".
func withMetrics(m *requestMetrics, mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		mux.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		pattern := r.Pattern
		if pattern == "" {
			pattern = "unmatched"
		}
		m.get(pattern).record(status, elapsed)
	})
}

// handleMetrics serves GET /v1/admin/metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.snapshot())
}
