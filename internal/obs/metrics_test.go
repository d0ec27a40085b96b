package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryIdempotent checks that re-registering (name, labels) returns
// the same instance, and that distinct label sets are distinct series.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("qsd_test_total", "help", Labels{"k": "a"})
	b := r.Counter("qsd_test_total", "help", Labels{"k": "a"})
	if a != b {
		t.Fatal("same (name, labels) returned different counters")
	}
	c := r.Counter("qsd_test_total", "help", Labels{"k": "b"})
	if a == c {
		t.Fatal("distinct labels returned the same counter")
	}
	a.Inc()
	a.Add(2)
	if b.Value() != 3 || c.Value() != 0 {
		t.Fatalf("values a=%d c=%d, want 3 and 0", b.Value(), c.Value())
	}

	g := r.Gauge("qsd_test_gauge", "g", nil)
	g.Set(5)
	if r.Gauge("qsd_test_gauge", "g", nil).Value() != 5 {
		t.Fatal("gauge not shared")
	}

	h := r.Histogram("qsd_test_seconds", "h", nil)
	h.Record(time.Millisecond)
	if r.Histogram("qsd_test_seconds", "h", nil).Count() != 1 {
		t.Fatal("histogram not shared")
	}
}

// TestRegistryConflictsPanic checks the programming-error cases fail loudly.
func TestRegistryConflictsPanic(t *testing.T) {
	cases := map[string]func(r *Registry){
		"type": func(r *Registry) {
			r.Counter("qsd_x_total", "h", nil)
			r.Gauge("qsd_x_total", "h", nil)
		},
		"help": func(r *Registry) {
			r.Counter("qsd_x_total", "h", nil)
			r.Counter("qsd_x_total", "other", nil)
		},
		"func-vs-storage": func(r *Registry) {
			r.Counter("qsd_x_total", "h", nil)
			r.CounterFunc("qsd_x_total", "h", nil, func() float64 { return 0 })
		},
		"bad-name": func(r *Registry) {
			r.Counter("qsd x total", "h", nil)
		},
		"bad-label": func(r *Registry) {
			r.Counter("qsd_x_total", "h", Labels{"1bad": "v"})
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn(NewRegistry())
		})
	}
}

// TestNilSafety checks nil counters/gauges/spans are inert, which is what
// lets layers instrument unconditionally whether or not obs is wired in.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var s *Span
	s.EndWith("x")
	s.Fail(fmt.Errorf("e"))
	if s.Child("y") != nil || s.Duration() != 0 || s.TraceID() != "" {
		t.Fatal("nil span not inert")
	}
}

// parseExposition is a strict line-level parser of the Prometheus text
// format used by the conformance test: it validates metric name and label
// grammar, HELP/TYPE ordering, and returns sample name→value.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	typeOf := map[string]string{}
	helpSeen := map[string]bool{}
	var curFamily string
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || checkMetricName(name) != nil {
				t.Fatalf("line %d: bad HELP: %q", ln+1, line)
			}
			if helpSeen[name] {
				t.Fatalf("line %d: duplicate HELP for %q", ln+1, name)
			}
			helpSeen[name] = true
			curFamily = name
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				t.Fatalf("line %d: bad TYPE: %q", ln+1, line)
			}
			name, typ := parts[0], parts[1]
			if name != curFamily {
				t.Fatalf("line %d: TYPE %q not preceded by its HELP", ln+1, name)
			}
			switch typ {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
			if typeOf[name] != "" {
				t.Fatalf("line %d: duplicate TYPE for %q", ln+1, name)
			}
			typeOf[name] = typ
		case strings.HasPrefix(line, "#"):
			// Comment; ignore.
		case line == "":
			t.Fatalf("line %d: blank line in exposition", ln+1)
		default:
			// Sample: name[{labels}] value
			i := strings.IndexAny(line, "{ ")
			if i < 0 {
				t.Fatalf("line %d: unparseable sample %q", ln+1, line)
			}
			name := line[:i]
			if checkMetricName(name) != nil {
				t.Fatalf("line %d: bad sample name %q", ln+1, name)
			}
			// The sample must belong to the current family (directly, or
			// via the summary's _sum/_count suffixes).
			base := name
			for _, suf := range []string{"_sum", "_count"} {
				if cut, ok := strings.CutSuffix(name, suf); ok && cut == curFamily {
					base = cut
				}
			}
			if base != curFamily {
				t.Fatalf("line %d: sample %q outside family %q (unlabeled by HELP/TYPE)", ln+1, name, curFamily)
			}
			rest := line[i:]
			if strings.HasPrefix(rest, "{") {
				end := strings.Index(rest, "} ")
				if end < 0 {
					t.Fatalf("line %d: unterminated labels in %q", ln+1, line)
				}
				for _, pair := range splitLabelPairs(rest[1:end]) {
					k, v, ok := strings.Cut(pair, "=")
					if !ok || checkLabelName(k) != nil || !strings.HasPrefix(v, `"`) || !strings.HasSuffix(v, `"`) {
						t.Fatalf("line %d: bad label pair %q", ln+1, pair)
					}
				}
				name = name + rest[:end+1]
				rest = rest[end+1:]
			}
			val, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
			}
			if _, dup := samples[name]; dup {
				t.Fatalf("line %d: duplicate series %q", ln+1, name)
			}
			samples[name] = val
		}
	}
	return samples
}

// splitLabelPairs splits `k1="v1",k2="v2"` respecting quoted commas.
func splitLabelPairs(s string) []string {
	var out []string
	var cur strings.Builder
	inQ := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\\' && inQ && i+1 < len(s):
			cur.WriteByte(c)
			i++
			cur.WriteByte(s[i])
		case c == '"':
			inQ = !inQ
			cur.WriteByte(c)
		case c == ',' && !inQ:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// TestExpositionConformance renders a mixed registry and strictly parses
// every line: grammar-valid names, each sample under its family's
// HELP/TYPE, no duplicate series, correct values.
func TestExpositionConformance(t *testing.T) {
	r := NewRegistry()
	r.Counter("qsd_a_total", "counter a", nil).Add(41)
	r.Counter("qsd_b_total", "counter b", Labels{"route": "/v1/x", "code": "200"}).Inc()
	r.Counter("qsd_b_total", "counter b", Labels{"route": "/v1/x", "code": "500"}).Add(2)
	r.Gauge("qsd_depth", "depth", nil).Set(-3)
	r.GaugeFunc("qsd_live", "live", nil, func() float64 { return 12.5 })
	h := r.Histogram("qsd_lat_seconds", "latency", Labels{"route": "/v1/x"})
	for i := 0; i < 100; i++ {
		h.Record(time.Duration(i+1) * time.Millisecond)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, buf.String())

	want := map[string]float64{
		"qsd_a_total":                           41,
		`qsd_b_total{code="200",route="/v1/x"}`: 1,
		`qsd_b_total{code="500",route="/v1/x"}`: 2,
		"qsd_depth":                             -3,
		"qsd_live":                              12.5,
		`qsd_lat_seconds_count{route="/v1/x"}`:  100,
	}
	for name, v := range want {
		got, ok := samples[name]
		if !ok {
			t.Errorf("missing sample %q in:\n%s", name, buf.String())
		} else if got != v {
			t.Errorf("sample %q = %v, want %v", name, got, v)
		}
	}
	// Summary quantiles present and plausible (~50ms median of 1..100ms);
	// the quantile label renders after the series' own sorted labels.
	p50, ok := samples[`qsd_lat_seconds{route="/v1/x",quantile="0.5"}`]
	if !ok {
		t.Fatalf("missing p50 quantile sample in:\n%s", buf.String())
	}
	if p50 < 0.045 || p50 > 0.055 {
		t.Errorf("p50 %v, want ~0.050", p50)
	}
	sum := samples[`qsd_lat_seconds_sum{route="/v1/x"}`]
	if want := 0.001 * 100 * 101 / 2; sum < want*0.99 || sum > want*1.01 {
		t.Errorf("sum %v, want ~%v", sum, want)
	}

	// Two scrapes render identically (deterministic ordering).
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("two scrapes of an unchanged registry differ")
	}
}

// TestSnapshotJSON checks the JSON view round-trips and agrees with the
// registered values.
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("qsd_jobs_total", "jobs", nil).Add(9)
	h := r.Histogram("qsd_lat_seconds", "lat", nil)
	h.Record(10 * time.Millisecond)
	h.Record(20 * time.Millisecond)

	raw, err := json.Marshal(r.TakeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Families) != 2 {
		t.Fatalf("families %d, want 2", len(snap.Families))
	}
	byName := map[string]FamilySnapshot{}
	for _, f := range snap.Families {
		byName[f.Name] = f
	}
	jobs := byName["qsd_jobs_total"]
	if jobs.Type != "counter" || len(jobs.Series) != 1 || jobs.Series[0].Value == nil || *jobs.Series[0].Value != 9 {
		t.Fatalf("bad counter snapshot: %+v", jobs)
	}
	lat := byName["qsd_lat_seconds"]
	if lat.Type != "summary" || len(lat.Series) != 1 || lat.Series[0].Summary == nil {
		t.Fatalf("bad summary snapshot: %+v", lat)
	}
	if s := lat.Series[0].Summary; s.Count != 2 || s.SumSeconds < 0.029 || s.SumSeconds > 0.031 {
		t.Fatalf("summary count=%d sum=%v, want 2 and ~0.030", s.Count, s.SumSeconds)
	}
}

// TestRegistryConcurrency exercises registration, updates and scrapes from
// many goroutines at once; run under -race this is the registry's
// thread-safety proof.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("qsd_conc_total", "c", Labels{"w": strconv.Itoa(w % 4)})
			h := r.Histogram("qsd_conc_seconds", "h", nil)
			g := r.Gauge("qsd_conc_depth", "g", nil)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Record(time.Duration(i%1000) * time.Microsecond)
				g.Set(int64(i))
				// Concurrent re-registration of existing and fresh series.
				r.Counter("qsd_conc_total", "c", Labels{"w": strconv.Itoa(i % 4)}).Inc()
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
				r.TakeSnapshot()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	parseExposition(t, buf.String())
}
