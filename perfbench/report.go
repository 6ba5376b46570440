package main

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// put records a metric and prints it. A value a layer cannot produce on
// this workload (its layer does not run, or it had no samples) is
// reported as 0 and printed as not applicable.
func (r *result) put(out io.Writer, name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v, note = 0, "not applicable on this workload"
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(out, "  %-32s %14.4f %s%s\n", name, v, unit, note)
}

// pct is one percentile of a sample, with what stands behind it.
type pct struct {
	value  float64
	n      int // samples
	beyond int // samples above the percentile
}

// percentile is the nearest-rank q-quantile of samples (NaN when empty).
func percentile(samples []float64, q float64) pct {
	if len(samples) == 0 {
		return pct{value: math.NaN()}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return pct{value: s[rank], n: len(s), beyond: len(s) - 1 - rank}
}

// note describes the sample behind a percentile.
func (p pct) note() string {
	if p.n == 0 {
		return "no samples"
	}
	s := fmt.Sprintf("n=%d, %d beyond", p.n, p.beyond)
	if p.beyond < 10 {
		s += ": fewer than ten samples beyond it"
	}
	return s
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// Runtime counters read from runtime/metrics.
var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

type runtimeCounters struct {
	allocBytes, allocs float64
	gcCPU, totalCPU    float64
	liveHeap           float64
}

func readRuntime() runtimeCounters {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	v := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		default:
			v[i] = math.NaN()
		}
	}
	return runtimeCounters{allocBytes: v[0], allocs: v[1], gcCPU: v[2], totalCPU: v[3], liveHeap: v[4]}
}
