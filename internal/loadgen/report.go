package loadgen

import (
	"encoding/json"
	"fmt"
	"os"

	"datamarket/internal/histo"
)

// RunResult is one driver run in the JSON report.
type RunResult struct {
	Mode        string  `json:"mode"` // "open" | "closed"
	TargetRate  float64 `json:"target_rate,omitempty"`
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"duration_sec"`
	// Issued counts SDK operations; Units counts rounds/trades carried
	// (Units ≥ Issued for batch workloads).
	Issued  int64 `json:"issued"`
	Dropped int64 `json:"dropped,omitempty"`
	Units   int64 `json:"units"`
	// OpsPerSec and UnitsPerSec are over the full run including drain.
	OpsPerSec   float64 `json:"ops_per_sec"`
	UnitsPerSec float64 `json:"units_per_sec"`
	// ErrorCounts maps api error codes ("transport" for non-API
	// failures) to op counts; absent when the run was clean.
	ErrorCounts map[string]int64 `json:"error_counts,omitempty"`
	// LatencyMicros summarizes per-op latency in microseconds. Open-loop
	// latencies are scheduled-time-based (coordinated-omission-safe).
	LatencyMicros histo.Summary `json:"latency_us"`
}

// ResultOf renders an Outcome for the report.
func ResultOf(o *Outcome) RunResult {
	r := RunResult{
		Mode:          o.Mode,
		TargetRate:    o.TargetRate,
		Concurrency:   o.Concurrency,
		DurationSec:   round3(o.Elapsed.Seconds()),
		Issued:        o.Issued,
		Dropped:       o.Dropped,
		Units:         o.Units,
		LatencyMicros: o.Latency.Summarize(1e3),
	}
	if sec := o.Elapsed.Seconds(); sec > 0 {
		r.OpsPerSec = round3(float64(o.Issued) / sec)
		r.UnitsPerSec = round3(float64(o.Units) / sec)
	}
	if len(o.Errors) > 0 {
		r.ErrorCounts = o.Errors
	}
	return r
}

// ScenarioSummary is the server-side outcome of one scenario, pulled
// from stream stats and market ledgers after the drivers finish. Stream
// fields aggregate across the scenario's streams; market fields are
// present only for scenarios that trade.
type ScenarioSummary struct {
	Streams           int     `json:"streams,omitempty"`
	Rounds            int     `json:"rounds,omitempty"`
	CumulativeRegret  float64 `json:"cumulative_regret,omitempty"`
	CumulativeValue   float64 `json:"cumulative_value,omitempty"`
	CumulativeRevenue float64 `json:"cumulative_revenue,omitempty"`
	RegretRatio       float64 `json:"regret_ratio,omitempty"`

	Trades             int     `json:"trades,omitempty"`
	Sold               int     `json:"sold,omitempty"`
	MarketRevenue      float64 `json:"market_revenue,omitempty"`
	MarketCompensation float64 `json:"market_compensation,omitempty"`
	MarketProfit       float64 `json:"market_profit,omitempty"`
}

// merge folds another summary in (used by the mixed scenario).
func (s *ScenarioSummary) merge(o *ScenarioSummary) {
	if o == nil {
		return
	}
	s.Streams += o.Streams
	s.Rounds += o.Rounds
	s.CumulativeRegret += o.CumulativeRegret
	s.CumulativeValue += o.CumulativeValue
	s.CumulativeRevenue += o.CumulativeRevenue
	if s.CumulativeValue > 0 {
		s.RegretRatio = round3(s.CumulativeRegret / s.CumulativeValue)
	}
	s.Trades += o.Trades
	s.Sold += o.Sold
	s.MarketRevenue += o.MarketRevenue
	s.MarketCompensation += o.MarketCompensation
	s.MarketProfit += o.MarketProfit
}

// ScenarioReport is one scenario's section of the report.
type ScenarioReport struct {
	Scenario string           `json:"scenario"`
	Results  []RunResult      `json:"results"`
	Summary  *ScenarioSummary `json:"summary,omitempty"`
}

// Report is the JSON report cmd/loadgen writes with -out.
type Report struct {
	Tool      string            `json:"tool"`
	GoVersion string            `json:"go_version"`
	CPUs      int               `json:"cpus"`
	Binary    bool              `json:"binary"`
	Scenarios []*ScenarioReport `json:"scenarios"`
}

// WriteFile emits the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("loadgen: encoding report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("loadgen: writing report: %w", err)
	}
	return nil
}

func round3(v float64) float64 { return float64(int64(float64(v*1000)+0.5)) / 1000 }
