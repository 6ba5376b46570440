package server

import (
	"net/http"
	"testing"

	"datamarket/api"
)

func TestAdminMetrics(t *testing.T) {
	_, c := newTestServer(t)

	// Traffic mix: 2 creates (one duplicate → 409), 3 prices, one request
	// to a path no route has (404) and one with a method its route lacks
	// (405).
	create := CreateStreamRequest{ID: "m", Dim: 2, Horizon: 1000}
	if st := c.do(http.MethodPost, "/v1/streams", create, nil); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if st := c.do(http.MethodPost, "/v1/streams", create, nil); st != http.StatusConflict {
		t.Fatalf("duplicate create: status %d", st)
	}
	val := 0.7
	for i := 0; i < 3; i++ {
		req := PriceRequest{Features: []float64{0.6, 0.8}, Reserve: -1e9, Valuation: &val}
		if st := c.do(http.MethodPost, "/v1/streams/m/price", req, nil); st != http.StatusOK {
			t.Fatalf("price %d: status %d", i, st)
		}
	}
	if st := c.do(http.MethodGet, "/v1/no/such/route", nil, nil); st != http.StatusNotFound {
		t.Fatalf("unmatched: status %d", st)
	}
	if st := c.do(http.MethodGet, "/v1/streams/m/price", nil, nil); st != http.StatusMethodNotAllowed {
		t.Fatalf("wrong method: status %d", st)
	}

	var resp api.MetricsResponse
	if st := c.do(http.MethodGet, "/v1/admin/metrics", nil, &resp); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	byName := make(map[string]api.EndpointMetrics, len(resp.Endpoints))
	for i, em := range resp.Endpoints {
		byName[em.Endpoint] = em
		if i > 0 && resp.Endpoints[i-1].Endpoint >= em.Endpoint {
			t.Errorf("endpoints not sorted: %q before %q", resp.Endpoints[i-1].Endpoint, em.Endpoint)
		}
	}

	cr, ok := byName["POST /v1/streams"]
	if !ok {
		t.Fatalf("no POST /v1/streams metrics; got %v", byName)
	}
	if cr.Count != 2 || cr.Errors != 1 {
		t.Errorf("create metrics: count=%d errors=%d, want 2/1", cr.Count, cr.Errors)
	}
	pr, ok := byName["POST /v1/streams/{id}/price"]
	if !ok {
		t.Fatalf("no price metrics; got %v", byName)
	}
	if pr.Count != 3 || pr.Errors != 0 {
		t.Errorf("price metrics: count=%d errors=%d, want 3/0", pr.Count, pr.Errors)
	}
	if pr.LatencySumMS <= 0 || pr.LatencyMaxMS <= 0 || pr.LatencyMaxMS > pr.LatencySumMS {
		t.Errorf("implausible latency sum/max: %v/%v", pr.LatencySumMS, pr.LatencyMaxMS)
	}
	if n := len(pr.Buckets); n == 0 {
		t.Fatalf("no latency buckets")
	}
	// Buckets are cumulative and bounded by the total count.
	var prev uint64
	for _, b := range pr.Buckets {
		if b.Count < prev {
			t.Errorf("bucket counts not cumulative: %v", pr.Buckets)
		}
		prev = b.Count
	}
	if prev > pr.Count {
		t.Errorf("bucket tail %d exceeds count %d", prev, pr.Count)
	}

	um, ok := byName["unmatched"]
	if !ok {
		t.Fatalf("no unmatched metrics; got %v", byName)
	}
	if um.Count != 2 || um.Errors != 2 {
		t.Errorf("unmatched metrics: count=%d errors=%d, want 2/2", um.Count, um.Errors)
	}

	// The metrics endpoint observes itself on a second scrape.
	if st := c.do(http.MethodGet, "/v1/admin/metrics", nil, &resp); st != http.StatusOK {
		t.Fatalf("second metrics scrape: status %d", st)
	}
	found := false
	for _, em := range resp.Endpoints {
		if em.Endpoint == "GET /v1/admin/metrics" && em.Count >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("metrics endpoint did not record itself")
	}
}
