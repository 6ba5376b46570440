package api

// Wire-compatibility tests: the JSON encoding of every type in this
// package is pinned by a golden file under testdata/<APIVersion>/. A
// mismatch means the wire contract changed; that is only legal together
// with an APIVersion bump (which pins the new encodings under a fresh
// directory and leaves the old ones in place as the record of what the
// old version spoke). CI runs these explicitly — see the
// wire-compatibility step in .github/workflows/ci.yml.
//
// To (re)generate fixtures after an intentional, version-bumped change:
//
//	go test ./api/ -run TestWireGolden -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"datamarket/internal/pricing"
)

// newValueOf returns a fresh *T for a sample of type T (or *T).
func newValueOf(v any) any {
	t := reflect.TypeOf(v)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return reflect.New(t).Interface()
}

var update = flag.Bool("update", false, "rewrite golden wire fixtures")

func fptr(v float64) *float64 { return &v }

// sampleEnvelope builds a deterministic family-tagged snapshot envelope
// by running one fixed round through a real mechanism, so the golden
// file pins the full snapshot wire format a server emits.
func sampleEnvelope(t *testing.T) *Envelope {
	t.Helper()
	poster, err := pricing.NewFamilyPoster(pricing.FamilySpec{
		Family: pricing.FamilyLinear, Dim: 2, Radius: 2, Reserve: true, Threshold: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := poster.PostPrice([]float64{0.6, 0.8}, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := poster.Observe(true); err != nil {
		t.Fatal(err)
	}
	env, err := poster.SnapshotEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	env.Regret = &pricing.TrackerState{CumRegret: 0.125, CumValue: 1, CumRevenue: 0.5}
	return env
}

// samples returns one fully-populated value per wire type. Every
// exported type of this package must appear here; TestWireGolden pins
// each one's JSON.
func samples(t *testing.T) map[string]any {
	t.Helper()
	return map[string]any{
		"create_stream_request": CreateStreamRequest{
			ID: "segment-a", Family: "nonlinear", Dim: 2, Radius: 2.5,
			Reserve: true, Delta: 0.1, Threshold: 0.05, Horizon: 10000,
			Model: &ModelConfig{
				Link: "identity", Map: "landmark",
				Kernel:    &KernelConfig{Type: "rbf", Gamma: 0.8},
				Landmarks: [][]float64{{0, 0}, {1, 1}},
			},
		},
		"model_config_sgd": ModelConfig{Eta0: 0.5, Margin: 1},
		"kernel_config":    KernelConfig{Type: "poly", Degree: 3, Offset: 1},
		"stream_info":      StreamInfo{ID: "segment-a", Family: "linear", Dim: 5},
		"list_streams_response": ListStreamsResponse{
			Streams: []StreamInfo{{ID: "a", Family: "linear", Dim: 3}},
		},
		"price_request": PriceRequest{
			Features: []float64{0.2, 0.4}, Reserve: 0.3, Valuation: fptr(1.1),
		},
		"quote_request":    QuoteRequest{Features: []float64{0.2, 0.4}, Reserve: 0.3},
		"observe_request":  ObserveRequest{Accepted: true},
		"observe_response": ObserveResponse{Observed: true},
		"price_response": PriceResponse{
			Price: 0.75, Decision: "exploratory", Lower: 0.5, Upper: 1,
			ReserveBinding: true, Accepted: boolPtr(true),
		},
		"batch_price_request": BatchPriceRequest{Rounds: []BatchPriceRound{
			{Features: []float64{0.1, 0.2}, Reserve: 0.05, Valuation: fptr(0.9)},
		}},
		"multi_batch_price_request": MultiBatchPriceRequest{Rounds: []MultiBatchRound{
			{StreamID: "a", Features: []float64{0.1, 0.2}, Reserve: 0.05, Valuation: fptr(0.9)},
		}},
		"batch_price_response": BatchPriceResponse{Results: []BatchRoundResult{
			{PriceResponse: PriceResponse{Price: 0.7, Decision: "conservative", Lower: 0.6, Upper: 0.8, Accepted: boolPtr(false)}},
			{Error: "feature dimension 1, stream wants 2"},
		}},
		"stats_response": StatsResponse{
			ID: "segment-a", Family: "linear", Dim: 5,
			Counters: Counters{
				Rounds: 10, Skips: 1, Exploratory: 4, Conservative: 5,
				Accepts: 6, Rejects: 3, CutsApplied: 7, CutsShallow: 1, CutsInfeasible: 1,
			},
			HasCounters: true,
			Regret: RegretStats{
				Rounds: 10, CumulativeRegret: 0.5, CumulativeValue: 9,
				CumulativeRevenue: 6.5, RegretRatio: 0.0556,
			},
		},
		"health_response": HealthResponse{Status: "ok", Streams: 3, Markets: 1},
		"version_response": VersionResponse{
			API: APIVersion, Server: "0.5.0", GoVersion: "go1.24.0", Revision: "abc123",
		},
		"error_response": ErrorResponse{Error: ErrorDetail{
			Code: CodeStreamNotFound, Message: `server: stream not found: "nope"`,
		}},
		"checkpoint_response": CheckpointResponse{
			CheckpointStats: CheckpointStats{
				Streams: 10, Persisted: 2, SkippedClean: 7, SkippedPending: 1,
				Errors: 0, DurationMS: 1.25,
			},
			Compacted: true,
		},
		"metrics_response": MetricsResponse{
			Endpoints: []EndpointMetrics{
				{
					Endpoint: "POST /v1/streams/{id}/price", Count: 42, Errors: 1,
					LatencySumMS: 12.5, LatencyMaxMS: 3.75,
					Buckets: []MetricsBucket{
						{LEMillis: 0.25, Count: 30}, {LEMillis: 1, Count: 40},
						{LEMillis: 4, Count: 42}, {LEMillis: 16, Count: 42},
						{LEMillis: 64, Count: 42}, {LEMillis: 250, Count: 42},
						{LEMillis: 1000, Count: 42},
					},
				},
				{
					Endpoint: "unmatched", Count: 1, Errors: 1,
					LatencySumMS: 0.02, LatencyMaxMS: 0.02,
					Buckets: []MetricsBucket{{LEMillis: 0.25, Count: 1}},
				},
			},
		},
		"store_status_response": StoreStatusResponse{
			Configured: true, CheckpointInterval: "5s", RecoveredStreams: 4,
			LastCheckpoint: &CheckpointStats{Streams: 4, Persisted: 4, DurationMS: 0.5},
			Store: &StoreStats{
				Backend: "journal", Dir: "/var/lib/brokerd", Entries: 4, LastLSN: 42,
				JournalBytes: 1024, JournalRecords: 8, Segments: 3, CheckpointBytes: 2048,
				Appends: 8, Compactions: 1, Commits: 3, CommitRecords: 8, CommitWaitMS: 1.5,
				// SyncErrors deliberately zero: the fixture pins that a
				// healthy disk reports "sync_errors": 0 explicitly rather
				// than omitting the key.
				SyncErrors: 0, RecoveredEntries: 4, Fsync: "always",
			},
		},
		"create_market_request": CreateMarketRequest{
			ID: "movielens",
			Owners: []OwnerSpec{
				{Value: 3.5, Range: 1, Contract: ContractSpec{Type: "tanh", Rho: 1, Eta: 10}},
				{Value: 2.0, Range: 1, Contract: ContractSpec{Type: "linear", Rho: 0.5}},
			},
			FeatureDim: 2, Seed: 7, Family: "linear", Radius: 2,
			Delta: 0.05, Threshold: 0.01, Horizon: 10000,
		},
		"market_info": MarketInfo{ID: "movielens", Family: "linear", Owners: 100, FeatureDim: 10},
		"list_markets_response": ListMarketsResponse{
			Markets: []MarketInfo{{ID: "movielens", Family: "linear", Owners: 100, FeatureDim: 10}},
		},
		"trade_request": TradeRequest{
			Weights: []float64{1, 0, 0.5}, NoiseVariance: 2, Valuation: 1.25,
		},
		"trade_request_sparse": TradeRequest{
			Owners: 3, Support: []int{0, 2}, Weights: []float64{1, 0.5},
			NoiseVariance: 2, Valuation: 1.25,
		},
		"trade_response": TradeResponse{TradeResult: TradeResult{
			Round: 1, Reserve: 0.4, Posted: 0.9, Decision: "exploratory", Sold: true,
			Revenue: 0.9, Compensation: 0.4, Profit: 0.5, Answer: 3.21, Regret: 0.35,
		}},
		"trade_batch_request": TradeBatchRequest{Trades: []TradeRequest{
			{Weights: []float64{1, 1}, NoiseVariance: 1, Valuation: 0.8},
		}},
		"trade_batch_response": TradeBatchResponse{Results: []TradeBatchResult{
			{TradeResult: TradeResult{Round: 2, Reserve: 0.3, Posted: 0.3, Decision: "skip", Regret: 0.1}},
			{Error: "query has 1 weights, market has 2 owners"},
		}},
		"ledger_response": LedgerResponse{
			Offset: 0, Total: 2,
			Entries: []TradeResult{{
				Round: 1, Reserve: 0.4, Posted: 0.9, Decision: "conservative",
				Sold: true, Revenue: 0.9, Compensation: 0.4, Profit: 0.5,
				Answer: 3.21, Regret: 0,
			}},
		},
		"payouts_response": PayoutsResponse{Payouts: []float64{0.25, 0.15}, Total: 0.4},
		"market_stats_response": MarketStatsResponse{
			ID: "movielens", Family: "linear", Owners: 100, FeatureDim: 10,
			Rounds: 50, Sold: 30, Revenue: 25, Compensation: 12, Profit: 13,
			Regret: RegretStats{
				Rounds: 50, CumulativeRegret: 2, CumulativeValue: 40,
				CumulativeRevenue: 25, RegretRatio: 0.05,
			},
			Counters:    Counters{Rounds: 50, Exploratory: 20, Conservative: 29, Skips: 1, Accepts: 30, Rejects: 19, CutsApplied: 35},
			HasCounters: true,
		},
		"envelope": sampleEnvelope(t),
	}
}

func boolPtr(v bool) *bool { return &v }

// TestWireGolden pins the JSON encoding of every wire type against the
// golden files of the current APIVersion.
func TestWireGolden(t *testing.T) {
	dir := filepath.Join("testdata", APIVersion)
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, v := range samples(t) {
		t.Run(name, func(t *testing.T) {
			got, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join(dir, name+".json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (new wire type?): %v\n"+
					"run `go test ./api/ -run TestWireGolden -update` and commit the fixture", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire encoding of %s changed without an APIVersion bump\n got: %s\nwant: %s",
					name, got, want)
			}
		})
	}
}

// TestWireGoldenRoundTrip ensures every pinned encoding also decodes
// back into its type without loss — a fixture that marshals but cannot
// unmarshal would still break clients.
func TestWireGoldenRoundTrip(t *testing.T) {
	for name, v := range samples(t) {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			fresh := newValueOf(v)
			if err := json.Unmarshal(data, fresh); err != nil {
				t.Fatalf("decoding %s: %v", name, err)
			}
			back, err := json.Marshal(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, back) {
				t.Errorf("%s does not survive a decode/encode round trip\n first: %s\nsecond: %s",
					name, data, back)
			}
		})
	}
}
