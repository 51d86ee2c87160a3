package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLevels are the percentiles a tail metric may name, highest first.
var tailLevels = []struct {
	p    float64
	name string
}{{0.999, "p999"}, {0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}}

// tailLevel returns the highest percentile with at least ten samples
// beyond it, or ok=false when n is too small for any of them.
func tailLevel(n int) (p float64, name string, ok bool) {
	for _, l := range tailLevels {
		if float64(n)*(1-l.p) >= 10-1e-9 {
			return l.p, l.name, true
		}
	}
	return 0, "", false
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// failedLatency stands in for a failed op: it misses every latency limit.
const failedLatency = math.MaxFloat64

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile (omitted otherwise).
	N int `json:"n,omitempty"`
}

// metrics is an ordered metric set.
type metrics struct {
	names []string
	m     map[string]metric
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

func (ms *metrics) set(name string, v float64, unit string, n int) {
	if _, ok := ms.m[name]; !ok {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit, N: n}
}

// latencies adds <class>_p50_ms and the tail percentile the sample
// supports (ms values; failed ops count as failedLatency).
func (ms *metrics) latencies(class string, vals []float64, tails bool) {
	if len(vals) == 0 {
		return
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ms.set(class+"_p50_ms", clamp(quantile(s, 0.5)), "ms", len(s))
	if !tails {
		return
	}
	if p, name, ok := tailLevel(len(s)); ok {
		ms.set(fmt.Sprintf("%s_%s_ms", class, name), clamp(quantile(s, p)), "ms", len(s))
	}
}

// clamp keeps a failed op's stand-in encodable as JSON.
func clamp(v float64) float64 { return math.Min(v, 1e9) }
