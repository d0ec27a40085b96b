package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/obs"
)

// newObsServer builds a test server with the full observability bundle.
func newObsServer(t *testing.T) (*httptest.Server, *obs.Obs) {
	t.Helper()
	exp := core.NewExperiments()
	exp.Engine = engine.New(2)
	o := obs.New()
	ts := httptest.NewServer(NewWithConfig(exp, core.DefaultRunParams(), Config{Obs: o}))
	t.Cleanup(ts.Close)
	return ts, o
}

// scrapeSamples fetches /metrics and strictly parses it: every line is a
// well-formed comment or sample, every sample belongs to the family HELP/TYPE
// announced above it, and no series repeats.  Returns sample → value.
func scrapeSamples(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	var curFamily string
	typed := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, _, ok := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			curFamily = name
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 || parts[0] != curFamily {
				t.Fatalf("line %d: TYPE not under its HELP: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "summary":
			default:
				t.Fatalf("line %d: unexpected type %q", ln+1, parts[1])
			}
			if typed[parts[0]] {
				t.Fatalf("line %d: duplicate TYPE for %q", ln+1, parts[0])
			}
			typed[parts[0]] = true
		case strings.HasPrefix(line, "#"):
		default:
			i := strings.IndexAny(line, "{ ")
			if i < 0 {
				t.Fatalf("line %d: unparseable sample %q", ln+1, line)
			}
			name := line[:i]
			base := name
			for _, suf := range []string{"_sum", "_count"} {
				if cut, ok := strings.CutSuffix(name, suf); ok && cut == curFamily {
					base = cut
				}
			}
			if base != curFamily {
				t.Fatalf("line %d: sample %q outside its HELP/TYPE family %q", ln+1, name, curFamily)
			}
			series := name
			rest := line[i:]
			if strings.HasPrefix(rest, "{") {
				end := strings.Index(rest, "} ")
				if end < 0 {
					t.Fatalf("line %d: unterminated labels: %q", ln+1, line)
				}
				series += rest[:end+1]
				rest = rest[end+1:]
			}
			val, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("line %d: bad value: %q", ln+1, line)
			}
			if _, dup := samples[series]; dup {
				t.Fatalf("line %d: duplicate series %q", ln+1, series)
			}
			samples[series] = val
		}
	}
	return samples
}

// TestMetricsEndpoint drives real traffic through an instrumented server
// and asserts the scrape parses cleanly and carries nonzero series from
// every layer: engine, server, sim (via the event-driven experiment),
// runtime.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newObsServer(t)
	// One computing request (buffersweep is event-driven, so the sim kernel
	// counters advance), one cache-hit repeat, one 404.
	for _, path := range []string{
		"/v1/experiments/buffersweep",
		"/v1/experiments/buffersweep",
		"/v1/experiments/does-not-exist",
	} {
		status, _, _ := get(t, ts.URL+path)
		if path == "/v1/experiments/does-not-exist" {
			if status != http.StatusNotFound {
				t.Fatalf("%s: status %d, want 404", path, status)
			}
		} else if status != http.StatusOK {
			t.Fatalf("%s: status %d", path, status)
		}
	}
	samples := scrapeSamples(t, ts.URL)

	nonzero := []string{
		"qsd_engine_jobs_total",
		"qsd_engine_cache_hits_total",
		"qsd_engine_cache_misses_total",
		"qsd_sim_events_total",
		"qsd_sim_kernel_acquires_total",
		"qsd_runtime_goroutines",
		"qsd_runtime_heap_alloc_bytes",
		"qsd_server_max_concurrent",
		"qsd_server_admitted_total",
		`qsd_server_requests_total{code="200",route="GET /v1/experiments/{id}"}`,
		`qsd_server_requests_total{code="404",route="GET /v1/experiments/{id}"}`,
		`qsd_server_request_seconds_count{route="GET /v1/experiments/{id}"}`,
	}
	for _, name := range nonzero {
		v, ok := samples[name]
		if !ok {
			t.Errorf("scrape missing series %q", name)
		} else if v <= 0 {
			t.Errorf("series %q = %v, want > 0", name, v)
		}
	}
	// The repeat request hit the memory cache: hits advanced.
	if samples["qsd_engine_cache_hits_total"] < 1 {
		t.Errorf("cache hits %v, want >= 1 after a repeated request", samples["qsd_engine_cache_hits_total"])
	}
}

// TestMetricsJSONEndpoint checks /v1/metrics returns the snapshot form.
func TestMetricsJSONEndpoint(t *testing.T) {
	ts, _ := newObsServer(t)
	get(t, ts.URL+"/v1/experiments/table1")
	status, body, ctype := get(t, ts.URL+"/v1/metrics")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("status %d, content type %q", status, ctype)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("invalid snapshot JSON: %v", err)
	}
	byName := map[string]obs.FamilySnapshot{}
	for _, f := range snap.Families {
		byName[f.Name] = f
	}
	if f, ok := byName["qsd_engine_jobs_total"]; !ok || len(f.Series) == 0 || f.Series[0].Value == nil || *f.Series[0].Value <= 0 {
		t.Errorf("snapshot missing nonzero qsd_engine_jobs_total: %+v", byName["qsd_engine_jobs_total"])
	}
	if f, ok := byName["qsd_server_request_seconds"]; !ok || len(f.Series) == 0 || f.Series[0].Summary == nil {
		t.Errorf("snapshot missing request latency summary")
	}
}

// TestHealthzAgreesWithMetrics pins the single-source-of-truth satellite:
// the admission numbers /v1/healthz reports and the registry's func-backed
// series read the same storage, so they must agree exactly on a quiet
// server.
func TestHealthzAgreesWithMetrics(t *testing.T) {
	ts, _ := newObsServer(t)
	for i := 0; i < 3; i++ {
		get(t, ts.URL+"/v1/experiments/table1")
	}
	_, body, _ := get(t, ts.URL+"/v1/healthz")
	var st healthStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	samples := scrapeSamples(t, ts.URL)
	if got := samples["qsd_server_admitted_total"]; got != float64(st.Admitted) {
		t.Errorf("admitted: metrics %v vs healthz %d", got, st.Admitted)
	}
	if got := samples["qsd_server_shed_total"]; got != float64(st.Shed) {
		t.Errorf("shed: metrics %v vs healthz %d", got, st.Shed)
	}
	if got := samples["qsd_engine_cache_memory_entries"]; got != float64(st.CacheMemoryEntries) {
		t.Errorf("cache entries: metrics %v vs healthz %d", got, st.CacheMemoryEntries)
	}
	if got := samples["qsd_server_queue_capacity"]; got != float64(st.QueueCapacity) {
		t.Errorf("queue capacity: metrics %v vs healthz %d", got, st.QueueCapacity)
	}
}

// TestTraceEndpoint checks the request→trace lifecycle over HTTP: the
// response carries X-Trace-Id, the finished trace is queryable with a span
// tree covering the engine jobs, outcomes flip to cache hits on a repeat,
// and unknown IDs 404.
func TestTraceEndpoint(t *testing.T) {
	ts, _ := newObsServer(t)

	fetchTrace := func(path string) (string, traceJSON) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		id := resp.Header.Get("X-Trace-Id")
		if id == "" {
			t.Fatalf("%s: no X-Trace-Id header", path)
		}
		status, body, _ := get(t, ts.URL+"/v1/trace/"+id)
		if status != http.StatusOK {
			t.Fatalf("/v1/trace/%s: status %d: %s", id, status, body)
		}
		var tr traceJSON
		if err := json.Unmarshal([]byte(body), &tr); err != nil {
			t.Fatalf("invalid trace JSON: %v", err)
		}
		return id, tr
	}

	id, tr := fetchTrace("/v1/experiments/table1")
	if tr.ID != id {
		t.Errorf("trace body ID %q != header %q", tr.ID, id)
	}
	if !strings.Contains(tr.Name, "GET /v1/experiments/table1") {
		t.Errorf("trace name %q", tr.Name)
	}
	if len(tr.Spans) < 2 {
		t.Fatalf("trace has %d spans, want root + jobs", len(tr.Spans))
	}
	root := tr.Spans[0]
	if root.Parent != 0 || root.DurationSeconds <= 0 {
		t.Errorf("bad root span: %+v", root)
	}
	ids := map[int64]bool{}
	for _, sp := range tr.Spans {
		ids[sp.ID] = true
	}
	var computed int
	for _, sp := range tr.Spans[1:] {
		if !ids[sp.Parent] {
			t.Errorf("span %d has unknown parent %d", sp.ID, sp.Parent)
		}
		if sp.Outcome == "computed" {
			computed++
		}
	}
	if computed == 0 {
		t.Error("first run recorded no computed spans")
	}

	// Repeat: served from cache, spans say so.
	_, tr2 := fetchTrace("/v1/experiments/table1")
	var cached int
	for _, sp := range tr2.Spans[1:] {
		if strings.HasPrefix(sp.Outcome, "cache-") {
			cached++
		}
	}
	if cached == 0 {
		t.Errorf("cached repeat recorded no cache-tier spans: %+v", tr2.Spans)
	}

	// Unknown trace IDs answer 404 with the JSON error envelope.
	status, body, _ := get(t, ts.URL+"/v1/trace/ffffffffffffffff")
	if status != http.StatusNotFound || !strings.Contains(body, "error") {
		t.Errorf("unknown trace: status %d body %s", status, body)
	}
}

// TestSSECarriesTraceID subscribes to /v1/progress, fires a traced run and
// expects job events stamped with the run's trace ID.
func TestSSECarriesTraceID(t *testing.T) {
	ts, _ := newObsServer(t)
	req, err := http.NewRequest("GET", ts.URL+"/v1/progress", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	events := make(chan progressEvent, 64)
	go func() {
		scanner := bufio.NewScanner(resp.Body)
		for scanner.Scan() {
			if data, ok := strings.CutPrefix(scanner.Text(), "data: "); ok {
				var ev progressEvent
				if json.Unmarshal([]byte(data), &ev) == nil && ev.Key != "" {
					events <- ev
				}
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)

	traceID := make(chan string, 1)
	go func() {
		resp, err := http.Get(ts.URL + fmt.Sprintf("/v1/experiments/table5?bits=%d", 26))
		if err == nil {
			traceID <- resp.Header.Get("X-Trace-Id")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev := <-events:
			if ev.TraceID == "" {
				continue // events from other tests' leftovers have none
			}
			select {
			case want := <-traceID:
				if ev.TraceID != want {
					t.Fatalf("SSE trace_id %q, response header %q", ev.TraceID, want)
				}
			case <-deadline:
				t.Fatal("no X-Trace-Id header received")
			}
			return
		case <-deadline:
			t.Fatal("no traced progress event received")
		}
	}
}
