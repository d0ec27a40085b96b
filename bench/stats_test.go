package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.75, 4},
		{[]float64{10, 20}, 0.25, 12.5},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) || !math.IsNaN(mean(nil)) {
		t.Error("quantile or mean of no samples is not NaN")
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("quantile reordered its input")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6},
		{[]float64{3.1, 2.7, 2.9, 3.3, 3.0, 2.8, 3.2, 2.95, 3.05, 3.15}, 2.875, 3.1625},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSupportedQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {10, 0}, {40, 0.75}, {500, 0.98}, {100000, 0.9999},
	} {
		if got := supportedQuantile(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("supportedQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestWorseBy(t *testing.T) {
	for _, tc := range []struct {
		base, now float64
		better    string
		want      float64
	}{
		{100, 110, "lower", 0.10},
		{100, 90, "lower", -0.10},
		{100, 90, "higher", 0.10},
		{100, 125, "higher", -0.25},
		{0, 0, "lower", 0},
	} {
		if got := worseBy(tc.base, tc.now, tc.better); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("worseBy(%v, %v, %s) = %v, want %v", tc.base, tc.now, tc.better, got, tc.want)
		}
	}
	if !math.IsInf(worseBy(0, 1, "lower"), 1) {
		t.Error("a metric rising from zero is not infinitely worse")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "throughput_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{99, 100, 101, 100}
	wide := []float64{70, 100, 130, 100}
	for _, tc := range []struct {
		name     string
		m        metricSpec
		old, cur []float64
		want     string
	}{
		{"unchanged", lower, steady, steady, "ok"},
		{"worse within bound", lower, steady, []float64{108, 109, 110, 109}, "ok"},
		{"worse beyond bound", lower, steady, []float64{114, 115, 116, 115}, "REGRESSED"},
		{"higher is better, fell beyond bound", higher, steady, []float64{84, 85, 86, 85}, "REGRESSED"},
		{"higher is better, rose", higher, steady, []float64{150, 151, 152, 150}, "ok"},
		{"old side too wide", lower, wide, steady, "UNRESOLVED"},
		{"new side too wide", lower, steady, wide, "UNRESOLVED"},
		{"too wide, and worse", lower, wide, []float64{90, 140, 200, 150}, "UNRESOLVED"},
		{"too wide, but every new run better", lower, wide, []float64{50, 60, 55, 30}, "improved"},
		{"one run a side", lower, []float64{100}, []float64{100}, "UNRESOLVED"},
	} {
		if got := verdict(tc.old, tc.cur, tc.m); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	sp := benchSpec{
		EndToEnd: []metricSpec{
			{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
		PerLayer: []metricSpec{{Name: "engine.hit_ns", Unit: "ns", Better: "lower"}},
	}
	runs := func(lat, tput, hit float64) []result {
		var rs []result
		for _, jitter := range []float64{0.99, 1, 1.01} {
			rs = append(rs, result{Metrics: map[string]metricValue{
				"latency_p50_ms":   {Value: lat * jitter},
				"throughput_per_s": {Value: tput * jitter},
				"engine.hit_ns":    {Value: hit * jitter},
			}})
		}
		return rs
	}
	for _, tc := range []struct {
		name      string
		lat, tput float64
		ok        bool
	}{
		{"unchanged", 10, 100, true},
		{"within bounds", 10.9, 91, true},
		{"latency regressed", 11.5, 100, false},
		{"throughput regressed", 10, 85, false},
		{"both improved", 5, 200, true},
	} {
		var w bytes.Buffer
		if got := compareResults(&w, sp, runs(10, 100, 50), runs(tc.lat, tc.tput, 500)); got != tc.ok {
			t.Errorf("%s: compare ok = %v, want %v\n%s", tc.name, got, tc.ok, w.String())
		}
		if !strings.Contains(w.String(), "engine.hit_ns") {
			t.Errorf("%s: per-layer metric missing from the comparison:\n%s", tc.name, w.String())
		}
	}
}
