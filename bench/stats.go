package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail estimate resting on fewer moves with every run.
const minTail = 10

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks.  xs need not be sorted; it is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// supportedQuantile is the highest quantile with at least minTail of n
// samples beyond it (0 when n is too small to support any tail).
func supportedQuantile(n int) float64 {
	if n <= minTail {
		return 0
	}
	return 1 - float64(minTail)/float64(n)
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so a
// spread printed here matches the one the run-to-run acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// worseBy is how much worse now is than base, as a share of base, for a
// metric where better is "lower" or "higher".  Negative means improved.
func worseBy(base, now float64, better string) float64 {
	if base == 0 {
		if now == base {
			return 0
		}
		return math.Inf(1)
	}
	d := (now - base) / math.Abs(base)
	if better == "higher" {
		d = -d
	}
	return d
}

// metricSpec is one metric of BENCHMARK.json.  Bound is zero for per-layer
// metrics, which carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: which
// workloads exist, which metrics each kind of run must print, and how long a
// run measures.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var sp benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("parse %s: %w", path, err)
	}
	return sp, nil
}

// metricValue and result are the JSON line every run ends with.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// readResults collects every result line of a file: the standard output of
// one or more runs of the same workload, concatenated.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err == nil && r.Metrics != nil {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no result lines", path)
	}
	return out, nil
}

// verdict judges one bounded metric between two sets of runs.  When either
// side's spread is wider than the bound (or unknown, with fewer than two
// runs), a change within the bound cannot be told from noise: the metric is
// unresolved unless every new run is better than every old one.  Otherwise it
// regressed if the new median is worse by more than the bound.
func verdict(old, cur []float64, m metricSpec) string {
	wide := func(xs []float64) bool { return len(xs) < 2 || !(spread(xs) <= m.Bound) }
	if wide(old) || wide(cur) {
		if allBetter(old, cur, m.Better) {
			return "improved"
		}
		return "UNRESOLVED"
	}
	if worseBy(median(old), median(cur), m.Better) > m.Bound {
		return "REGRESSED"
	}
	return "ok"
}

// allBetter reports whether every value of cur is better than every value of
// old.
func allBetter(old, cur []float64, better string) bool {
	for _, a := range old {
		for _, b := range cur {
			if worseBy(a, b, better) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareResults prints, for every metric of the spec found in both sets,
// each side's median and quartile spread, how much worse the new median is
// than the old, and for bounded metrics the bound and the verdict.  It
// reports whether every bounded metric was judged ok or improved.
func compareResults(w io.Writer, sp benchSpec, old, cur []result) bool {
	ok := true
	fmt.Fprintf(w, "%-34s %-6s %14s %7s %14s %7s %9s %7s  %s\n",
		"metric", "unit", "old median", "spread", "new median", "spread", "worse by", "bound", "verdict")
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		a, b := values(old, m.Name), values(cur, m.Name)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		v, bound := "", "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			v = verdict(a, b, m)
			ok = ok && (v == "ok" || v == "improved")
		}
		fmt.Fprintf(w, "%-34s %-6s %14.6g %6.1f%% %14.6g %6.1f%% %8.1f%% %7s  %s\n",
			m.Name, m.Unit, median(a), 100*spread(a), median(b), 100*spread(b),
			100*worseBy(median(a), median(b), m.Better), bound, v)
	}
	return ok
}

func values(rs []result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}
