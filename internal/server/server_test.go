package server

import (
	"bufio"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/report"
	"speedofdata/internal/store"
)

func newTestServer(t *testing.T) (*httptest.Server, core.Experiments) {
	t.Helper()
	exp := core.NewExperiments()
	exp.Engine = engine.New(2)
	ts := httptest.NewServer(New(exp, core.DefaultRunParams()))
	t.Cleanup(ts.Close)
	return ts, exp
}

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

// cheapIDs are experiment endpoints fast enough for the test suite; the
// acceptance criterion wants at least six answering in JSON and CSV.
var cheapIDs = []string{"table1", "table5", "table6", "table7", "table8", "simple-factory"}

func TestExperimentEndpointsJSON(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, id := range cheapIDs {
		status, body, ctype := get(t, ts.URL+"/v1/experiments/"+id+"?format=json")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", id, status, body)
		}
		if !strings.HasPrefix(ctype, "application/json") {
			t.Errorf("%s: content type %q", id, ctype)
		}
		var doc struct {
			Sections []struct {
				ID     string            `json:"id"`
				Blocks []json.RawMessage `json:"blocks"`
			} `json:"sections"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("%s: invalid JSON: %v", id, err)
		}
		if len(doc.Sections) != 1 || doc.Sections[0].ID != id || len(doc.Sections[0].Blocks) == 0 {
			t.Errorf("%s: unexpected document: %s", id, body)
		}
	}
}

func TestExperimentEndpointsCSV(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, id := range cheapIDs {
		status, body, ctype := get(t, ts.URL+"/v1/experiments/"+id+"?format=csv")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", id, status, body)
		}
		if !strings.HasPrefix(ctype, "text/csv") {
			t.Errorf("%s: content type %q", id, ctype)
		}
		cr := csv.NewReader(strings.NewReader(body))
		cr.FieldsPerRecord = -1
		recs, err := cr.ReadAll()
		if err != nil {
			t.Fatalf("%s: invalid CSV: %v", id, err)
		}
		if len(recs) == 0 || recs[0][0] != id {
			t.Errorf("%s: unexpected CSV: %v", id, recs)
		}
	}
}

// TestRepeatedRequestServedFromCache is the acceptance check: an identical
// second request must be answered from the engine's fingerprint cache, not
// recomputed.
func TestRepeatedRequestServedFromCache(t *testing.T) {
	ts, exp := newTestServer(t)
	url := ts.URL + "/v1/experiments/table5?format=json"
	status, first, _ := get(t, url)
	if status != http.StatusOK {
		t.Fatalf("first request: %d %s", status, first)
	}
	tiers0 := exp.Engine.Tiers()
	status, second, _ := get(t, url)
	if status != http.StatusOK {
		t.Fatalf("second request: %d %s", status, second)
	}
	tiers1 := exp.Engine.Tiers()
	if first != second {
		t.Error("identical requests returned different bodies")
	}
	if tiers1.MemoryHits <= tiers0.MemoryHits {
		t.Errorf("second request did not hit the cache: hits %d -> %d", tiers0.MemoryHits, tiers1.MemoryHits)
	}
	if tiers1.MemoryMisses != tiers0.MemoryMisses {
		t.Errorf("second request recomputed: misses %d -> %d", tiers0.MemoryMisses, tiers1.MemoryMisses)
	}

	// Different parameters must not be served from the same cache entry.
	status, _, _ = get(t, ts.URL+"/v1/experiments/table5?format=json&bits=16")
	if status != http.StatusOK {
		t.Fatalf("bits=16 request: %d", status)
	}
	misses2 := exp.Engine.Tiers().MemoryMisses
	if misses2 == tiers1.MemoryMisses {
		t.Error("changed parameters should have computed fresh jobs")
	}
}

func TestTextFormatMatchesCLIRenderer(t *testing.T) {
	ts, exp := newTestServer(t)
	status, body, ctype := get(t, ts.URL+"/v1/experiments/table1?format=text")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("content type %q", ctype)
	}
	sec, err := core.RunExperiment(exp, "table1", core.DefaultRunParams())
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := (report.Document{Sections: []report.Section{sec}}).Encode(&want, report.FormatText); err != nil {
		t.Fatal(err)
	}
	if body != want.String() {
		t.Errorf("HTTP text differs from CLI renderer:\n%q\n%q", body, want.String())
	}
}

// TestUnencodableDocumentIs500: a document the requested format cannot
// encode, a series with a NaN point in JSON, is a server failure answered
// with 500 and the JSON error envelope, not a 200 with an empty body.  Text
// encodes the same document.
func TestUnencodableDocumentIs500(t *testing.T) {
	srv := New(core.NewExperiments(), core.DefaultRunParams())
	srv.runReport = func(ctx context.Context, exp core.Experiments, p core.RunParams, ids []string) (report.Document, error) {
		s := report.Series{Title: "nan"}
		s.Add(0, 1)
		s.Add(1, math.NaN())
		return report.Document{Sections: []report.Section{report.NewSection(ids[0], s)}}, nil
	}
	serve := func(format string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/experiments/fig8?format="+format, nil))
		return rec
	}
	rec := serve("json")
	if rec.Code != http.StatusInternalServerError || !strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("status %d, content type %q, body %q; want 500 with a JSON error",
			rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "NaN") {
		t.Errorf("body %q is not the JSON error envelope naming the NaN: %v", rec.Body.String(), err)
	}
	if rec := serve("text"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "NaN") {
		t.Errorf("text: status %d, body %q; want 200 with the series", rec.Code, rec.Body.String())
	}
}

func TestListEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	status, body, _ := get(t, ts.URL+"/v1/experiments")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var out struct {
		Experiments []struct {
			ID   string `json:"id"`
			Path string `json:"path"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Experiments) < 10 {
		t.Errorf("expected a full index, got %d entries", len(out.Experiments))
	}
	for _, e := range out.Experiments {
		if !strings.HasPrefix(e.Path, "/v1/experiments/") {
			t.Errorf("bad path %q", e.Path)
		}
	}
}

func TestErrorResponses(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		url  string
		code int
	}{
		{"/v1/experiments/nope", http.StatusNotFound},
		{"/v1/experiments/table1?format=xml", http.StatusBadRequest},
		{"/v1/experiments/fig15?arch=warp", http.StatusBadRequest},
		{"/v1/experiments/table1?bits=-3", http.StatusBadRequest},
		{"/v1/experiments/fig4?trials=zillions", http.StatusBadRequest},
		{"/v1/experiments/fig4?sparse=perhaps", http.StatusBadRequest},
	}
	for _, c := range cases {
		status, body, _ := get(t, ts.URL+c.url)
		if status != c.code {
			t.Errorf("%s: status %d, want %d (%s)", c.url, status, c.code, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Errorf("%s: expected JSON error body, got %q", c.url, body)
		}
	}
}

func TestHealthAndCacheEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	status, body, _ := get(t, ts.URL+"/v1/healthz")
	if status != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Errorf("healthz: %d %s", status, body)
	}
	get(t, ts.URL+"/v1/experiments/table5")
	get(t, ts.URL+"/v1/experiments/table5") // repeat: a memory-tier hit
	status, body, _ = get(t, ts.URL+"/v1/cache")
	if status != http.StatusOK {
		t.Fatalf("cache: %d", status)
	}
	var stats struct {
		Hits, Misses, Coalesced, Entries int
		StoreHits                        int `json:"store_hits"`
		StoreMisses                      int `json:"store_misses"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Misses == 0 {
		t.Errorf("expected recorded misses after a run: %s", body)
	}
	if stats.Hits == 0 || stats.Entries == 0 {
		t.Errorf("expected memory hits and entries after a repeated run: %s", body)
	}
	if stats.StoreHits != 0 || stats.StoreMisses != 0 {
		t.Errorf("store counters nonzero without a backend: %s", body)
	}

	// healthz reports the memory tier's effectiveness; without a -store
	// backend the store gauges are absent entirely.
	st := getHealth(t, ts.URL)
	if st.CacheMemoryHitRate <= 0 || st.CacheMemoryHitRate > 1 {
		t.Errorf("cache_memory_hit_rate = %v, want in (0, 1]", st.CacheMemoryHitRate)
	}
	if st.CacheMemoryEntries == 0 {
		t.Error("cache_memory_entries = 0 after a cached run")
	}
	if st.Store != nil || st.StoreHitRate != 0 {
		t.Errorf("store gauges present without a backend: %+v", st)
	}
}

// TestHealthzStoreGauges attaches a persistent store backend and checks the
// healthz store section, including the warm-restart path: a second engine on
// the same directory answers from the store and reports a store hit-rate.
func TestHealthzStoreGauges(t *testing.T) {
	dir := t.TempDir()
	bk, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exp := core.NewExperiments()
	exp.Engine = engine.New(2)
	exp.Engine.Backend = bk
	ts := httptest.NewServer(New(exp, core.DefaultRunParams()))
	if status, body, _ := get(t, ts.URL+"/v1/experiments/table5"); status != http.StatusOK {
		t.Fatalf("run: %d %s", status, body)
	}
	st := getHealth(t, ts.URL)
	ts.Close()
	if st.Store == nil {
		t.Fatal("healthz store section missing with a backend attached")
	}
	if st.Store.Puts == 0 || st.Store.Entries == 0 || st.Store.FileBytes == 0 {
		t.Fatalf("store gauges empty after a run: %+v", st.Store)
	}
	if err := bk.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulated restart: fresh engine, fresh store handle, same directory.
	bk2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bk2.Close()
	exp2 := core.NewExperiments()
	exp2.Engine = engine.New(2)
	exp2.Engine.Backend = bk2
	ts2 := httptest.NewServer(New(exp2, core.DefaultRunParams()))
	defer ts2.Close()
	if status, body, _ := get(t, ts2.URL+"/v1/experiments/table5"); status != http.StatusOK {
		t.Fatalf("warm run: %d %s", status, body)
	}
	st = getHealth(t, ts2.URL)
	if st.StoreHitRate == 0 {
		t.Errorf("store_hit_rate = 0 after warm restart; want > 0 (healthz: %+v)", st)
	}
	if st.Store == nil || st.Store.Entries == 0 {
		t.Errorf("store entries missing after warm restart: %+v", st.Store)
	}
}

// TestProgressSSE subscribes to the progress stream, triggers a run and
// expects at least one job event before a deadline.
func TestProgressSSE(t *testing.T) {
	ts, _ := newTestServer(t)
	req, err := http.NewRequest("GET", ts.URL+"/v1/progress", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	events := make(chan string, 16)
	go func() {
		scanner := bufio.NewScanner(resp.Body)
		for scanner.Scan() {
			line := scanner.Text()
			if strings.HasPrefix(line, "data: ") {
				events <- strings.TrimPrefix(line, "data: ")
			}
		}
	}()
	// Give the subscription a moment, then trigger work with fresh
	// parameters so jobs actually execute (cache misses).  Plain http.Get:
	// t.Fatal must not be called off the test goroutine.
	time.Sleep(50 * time.Millisecond)
	go func() {
		resp, err := http.Get(ts.URL + fmt.Sprintf("/v1/experiments/table5?bits=%d", 24))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	select {
	case data := <-events:
		var ev struct {
			Done  int    `json:"done"`
			Total int    `json:"total"`
			Key   string `json:"key"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad event %q: %v", data, err)
		}
		if ev.Done <= 0 || ev.Total <= 0 {
			t.Errorf("implausible event: %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no progress event received")
	}
}

// TestSparseSamplingParameter serves fig4 with the sparse Monte Carlo
// sampler and checks the result differs from the dense default (distinct
// cache keys, distinct draws) while remaining a valid report.
func TestSparseSamplingParameter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two fig4 Monte Carlos")
	}
	ts, _ := newTestServer(t)
	status, dense, _ := get(t, ts.URL+"/v1/experiments/fig4?format=json&trials=20000&seed=5")
	if status != http.StatusOK {
		t.Fatalf("dense fig4: status %d: %s", status, dense)
	}
	status, sparse, _ := get(t, ts.URL+"/v1/experiments/fig4?format=json&trials=20000&seed=5&sparse=true")
	if status != http.StatusOK {
		t.Fatalf("sparse fig4: status %d: %s", status, sparse)
	}
	var doc struct {
		Sections []struct {
			ID string `json:"id"`
		} `json:"sections"`
	}
	if err := json.Unmarshal([]byte(sparse), &doc); err != nil || len(doc.Sections) != 1 {
		t.Fatalf("sparse fig4: bad document: %v %s", err, sparse)
	}
	// The sparse sampler draws differently, so the estimates (and therefore
	// the rendered bodies) must differ from the dense default — this is what
	// catches a server that silently drops the parameter (the two must also
	// never share cache keys, or this request would be answered with the
	// dense result computed above).
	if sparse == dense {
		t.Fatal("sparse=true returned the dense result; the parameter is not reaching the sampler")
	}
	// Repeating the sparse request must be deterministic (cache or not).
	status, sparse2, _ := get(t, ts.URL+"/v1/experiments/fig4?format=json&trials=20000&seed=5&sparse=1")
	if status != http.StatusOK || sparse2 != sparse {
		t.Errorf("sparse fig4 not deterministic across requests")
	}
}

// TestParamBoundsTable probes the HTTP cap or floor of every row of the core
// parameter table under each of its spellings: the bound itself passes
// queryParams (the unit seam, so nothing heavy runs) and one step past it is
// a real HTTP 400 naming the bound.  Two coverage checks close it: every
// parameter an experiment advertises is a table row, and every RunParams
// field is bound by exactly one row.
func TestParamBoundsTable(t *testing.T) {
	ts, _ := newTestServer(t)
	exp := core.NewExperiments()
	exp.Engine = engine.New(1)
	srv := New(exp, core.DefaultRunParams())
	parse := func(query string) error {
		req := httptest.NewRequest("GET", "/v1/experiments/fig4?"+query, nil)
		_, _, err := srv.queryParams(req.URL.Query())
		return err
	}

	var e core.Experiments
	var p core.RunParams
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	for _, prm := range core.Params {
		bound, toward, errStr := prm.Cap, math.Inf(1), "server limit"
		if prm.Floor != 0 {
			bound, toward, errStr = prm.Floor, math.Inf(-1), "server minimum"
		}
		if bound == 0 {
			continue
		}
		past := math.Nextafter(bound, toward)
		if _, ok := prm.Field(&e, &p).(*int); ok {
			past = bound + math.Copysign(1, toward)
		}
		prefix := ""
		if prm.Name == "conf" {
			prefix = "ci=0.1&" // a confidence level needs a half-width target
		}
		for _, name := range []string{prm.Name, prm.Alias} {
			if name == "" {
				continue
			}
			over := prefix + name + "=" + num(past)
			status, body, _ := get(t, ts.URL+"/v1/experiments/fig4?"+over)
			if status != http.StatusBadRequest || !strings.Contains(body, errStr) {
				t.Errorf("%s past its bound: status %d, want 400 mentioning %q: %s", over, status, errStr, body)
			}
			at := prefix + name + "=" + num(bound)
			if err := parse(at); err != nil {
				t.Errorf("%s at its bound: rejected: %v", at, err)
			}
		}
	}

	rows := map[string]bool{}
	for _, prm := range core.Params {
		rows[prm.Name] = true
	}
	for _, info := range core.ExperimentInfos() {
		for _, param := range info.Params {
			if !rows[param] {
				t.Errorf("experiment %s advertises param %q, which is not a row of core.Params", info.ID, param)
			}
		}
	}
	fields := reflect.ValueOf(&p).Elem()
	for i := 0; i < fields.NumField(); i++ {
		bound := 0
		for _, prm := range core.Params {
			if prm.Field(&e, &p) == fields.Field(i).Addr().Interface() {
				bound++
			}
		}
		if bound != 1 {
			t.Errorf("RunParams.%s is bound by %d rows of core.Params, want 1", fields.Type().Field(i).Name, bound)
		}
	}

	// The admission Config knobs get the same treatment: every field must be
	// covered by TestConfigValidate's rejection sweep (tracked here by name,
	// so adding a knob without validation fails this sweep).
	validated := map[string]bool{
		"MaxConcurrent":  true,
		"MaxQueue":       true,
		"QueueTimeout":   true,
		"RequestTimeout": true,
		"RatePerClient":  true,
		"BurstPerClient": true,
		// Obs and AccessLog are wiring, not admission knobs: a nil bundle
		// disables observability and a bool cannot be invalid, so there is
		// nothing for Validate to reject.
		"Obs":       true,
		"AccessLog": true,
	}
	rt := reflect.TypeOf(Config{})
	for i := 0; i < rt.NumField(); i++ {
		if name := rt.Field(i).Name; !validated[name] {
			t.Errorf("Config field %q is not covered by the validation sweep; extend TestConfigValidate and this table", name)
		}
	}
}

// TestEventDrivenScenarioEndpoints serves the finite-buffer/contention
// scenarios over HTTP and checks the buffer parameter is honoured and
// bounded.
func TestEventDrivenScenarioEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, path := range []string{
		"/v1/experiments/factory-sim?format=json",
		"/v1/experiments/contention?format=json&bits=4",
		"/v1/experiments/buffersweep?format=json&bits=4&benchmark=qrca",
		"/v1/experiments/fig15buf?format=json&bits=4&scale=2&arch=fm&buffer=8",
	} {
		status, body, _ := get(t, ts.URL+path)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, status, body)
		}
		var doc struct {
			Sections []struct {
				ID string `json:"id"`
			} `json:"sections"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("%s: invalid JSON: %v", path, err)
		}
		if len(doc.Sections) != 1 {
			t.Errorf("%s: expected one section, got %s", path, body)
		}
	}
	// The buffer parameter shows up in the rendered title.
	status, body, _ := get(t, ts.URL+"/v1/experiments/fig15buf?format=text&bits=4&scale=2&arch=fm&buffer=8")
	if status != http.StatusOK || !strings.Contains(body, "8-ancilla buffers") {
		t.Errorf("buffer parameter not honoured (status %d):\n%s", status, body)
	}
	// Out-of-range and malformed buffers are rejected.
	status, body, _ = get(t, ts.URL+"/v1/experiments/fig15buf?bits=4&buffer=2000000")
	if status != http.StatusBadRequest {
		t.Errorf("oversized buffer: status %d: %s", status, body)
	}
	status, _, _ = get(t, ts.URL+"/v1/experiments/fig15buf?bits=4&buffer=-1")
	if status != http.StatusBadRequest {
		t.Errorf("negative buffer: status %d", status)
	}
}

// TestNetworkScenarioEndpoints serves the routed-mesh scenarios over HTTP
// and checks the tiles parameter is honoured and bounded exactly like
// buffer/scale, with a table-driven out-of-range sweep on both endpoints.
func TestNetworkScenarioEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)

	// Both endpoints answer with the tiles parameter applied.
	status, body, _ := get(t, ts.URL+"/v1/experiments/netsweep?format=text&bits=4&tiles=2")
	if status != http.StatusOK || !strings.Contains(body, "meshes up to 2 tiles") {
		t.Errorf("netsweep tiles parameter not honoured (status %d):\n%s", status, body)
	}
	status, body, _ = get(t, ts.URL+"/v1/experiments/netcontention?format=text&bits=4&tiles=2")
	if status != http.StatusOK || !strings.Contains(body, "one 2-tile teleportation mesh") {
		t.Errorf("netcontention tiles parameter not honoured (status %d):\n%s", status, body)
	}

	// Out-of-range and malformed values are rejected on both endpoints.
	cases := []struct {
		name  string
		query string
		want  int
		body  string
	}{
		{"zero tiles", "tiles=0", http.StatusBadRequest, "tiles must be positive"},
		{"negative tiles", "tiles=-3", http.StatusBadRequest, "tiles must be positive"},
		{"oversized tiles", "tiles=65", http.StatusBadRequest, "server limit"},
		{"malformed tiles", "tiles=mesh", http.StatusBadRequest, "invalid tiles"},
		{"negative buffer", "buffer=-1", http.StatusBadRequest, "buffer must be non-negative"},
		{"oversized buffer", "buffer=2000000", http.StatusBadRequest, "server limit"},
	}
	for _, id := range []string{"netsweep", "netcontention"} {
		for _, tc := range cases {
			url := ts.URL + "/v1/experiments/" + id + "?bits=4&" + tc.query
			status, body, _ := get(t, url)
			if status != tc.want {
				t.Errorf("%s %s: status %d, want %d: %s", id, tc.name, status, tc.want, body)
			}
			if !strings.Contains(body, tc.body) {
				t.Errorf("%s %s: error %q should mention %q", id, tc.name, body, tc.body)
			}
		}
	}

	// Aliases resolve on the HTTP surface too.
	status, _, _ = get(t, ts.URL+"/v1/experiments/network-sweep?format=json&bits=4&tiles=2")
	if status != http.StatusOK {
		t.Errorf("network-sweep alias: status %d", status)
	}

	// tiles=1 passes generic validation (netcontention accepts it) but
	// netsweep itself rejects it with an explanatory 400.
	status, body, _ = get(t, ts.URL+"/v1/experiments/netsweep?bits=4&tiles=1")
	if status != http.StatusBadRequest || !strings.Contains(body, "tile bound of at least 2") {
		t.Errorf("netsweep tiles=1: status %d, body %s", status, body)
	}
	status, _, _ = get(t, ts.URL+"/v1/experiments/netcontention?format=json&bits=4&tiles=1")
	if status != http.StatusOK {
		t.Errorf("netcontention tiles=1 (degenerate mesh): status %d", status)
	}

	// The scenarios describe the mesh they planned: layout.PlanQalypso stops
	// at the tiles the qubits fill.  A 1-qubit QFT fills one tile, which has
	// no links, whatever the bound.
	for _, id := range []string{"netsweep", "netfault", "netdegrade"} {
		status, body, _ = get(t, ts.URL+"/v1/experiments/"+id+"?benchmark=QFT&bits=1&tiles=2")
		if status != http.StatusBadRequest || !strings.Contains(body, "at least 2 tiles") {
			t.Errorf("%s on a 1-tile plan: status %d, want 400 naming the tile floor: %s", id, status, body)
		}
	}
	titles := []struct{ query, want string }{
		{"netfault?format=text&benchmark=QRCA&bits=8&tiles=8", "8-bit QRCA, 7-tile mesh"},
		{"netdegrade?format=text&benchmark=QRCA&bits=8&tiles=8", "8-bit QRCA, 7-tile mesh"},
		{"netcontention?format=text&bits=1&tiles=16", "one 8-tile teleportation mesh"},
	}
	for _, tc := range titles {
		status, body, _ = get(t, ts.URL+"/v1/experiments/"+tc.query)
		if status != http.StatusOK || !strings.Contains(body, tc.want) {
			t.Errorf("%s: status %d, want a title naming the planned mesh %q:\n%s", tc.query, status, tc.want, body)
		}
	}
	// Two qubits fill two tiles at any bound: the 4-tile row of the sweep
	// would replay the 2-tile plan again, so the sweep stops.
	status, body, _ = get(t, ts.URL+"/v1/experiments/netsweep?format=csv&benchmark=QFT&bits=2&tiles=4")
	rows := 0
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "netsweep,row,2,") {
			rows++
		}
	}
	if status != http.StatusOK || rows != 5 {
		t.Errorf("netsweep of a 2-qubit QFT up to 4 tiles: status %d, %d two-tile rows, want 5:\n%s", status, rows, body)
	}
}

// TestFaultScenarioEndpoints serves the interconnect fault scenarios over
// HTTP: netfault's three arms and netdegrade's failure sweep answer on a
// 4-tile mesh, a fault plan that disconnects the mesh surfaces as a 400 with
// the typed partition error, and the faults parameter is validated and
// bounded like tiles.
func TestFaultScenarioEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)

	status, body, _ := get(t, ts.URL+"/v1/experiments/netfault?format=text&bits=4&tiles=4")
	if status != http.StatusOK || !strings.Contains(body, "4-tile mesh") {
		t.Errorf("netfault not honoured (status %d):\n%s", status, body)
	}
	for _, arm := range []string{"none", "degraded-25%", "dead-bisection-link"} {
		if !strings.Contains(body, arm) {
			t.Errorf("netfault report misses the %q arm:\n%s", arm, body)
		}
	}

	status, body, _ = get(t, ts.URL+"/v1/experiments/netdegrade?format=text&bits=4&tiles=4&faults=4")
	if status != http.StatusOK || !strings.Contains(body, "until partition") {
		t.Errorf("netdegrade not honoured (status %d):\n%s", status, body)
	}
	if !strings.Contains(body, "true") {
		t.Errorf("netdegrade sweep to 4 failures should reach the partition point:\n%s", body)
	}

	// A 2-tile mesh has only the bisection boundary: the dead-link arm
	// disconnects it, and the typed error surfaces as a client fault.
	status, body, _ = get(t, ts.URL+"/v1/experiments/netfault?bits=4&tiles=2")
	if status != http.StatusBadRequest || !strings.Contains(body, "partitioned") {
		t.Errorf("partitioned netfault: status %d, want 400 naming the partition: %s", status, body)
	}

	// The faults parameter is validated and bounded like tiles.
	cases := []struct {
		name  string
		query string
		body  string
	}{
		{"negative faults", "faults=-1", "faults must be non-negative"},
		{"oversized faults", "faults=65", "server limit"},
		{"malformed faults", "faults=many", "invalid faults"},
	}
	for _, tc := range cases {
		status, body, _ := get(t, ts.URL+"/v1/experiments/netdegrade?bits=4&"+tc.query)
		if status != http.StatusBadRequest || !strings.Contains(body, tc.body) {
			t.Errorf("%s: status %d, body %q, want 400 mentioning %q", tc.name, status, body, tc.body)
		}
	}

	// Aliases resolve on the HTTP surface too.
	for _, alias := range []string{"network-fault?format=json&bits=4&tiles=4", "network-degrade?format=json&bits=4&tiles=4&faults=1"} {
		if status, body, _ := get(t, ts.URL+"/v1/experiments/"+alias); status != http.StatusOK {
			t.Errorf("alias %s: status %d: %s", alias, status, body)
		}
	}
}

// sseClient subscribes to /v1/progress and forwards every named event.
type sseRecord struct {
	name string
	data string
}

func subscribeSSE(t *testing.T, url string) chan sseRecord {
	t.Helper()
	req, err := http.NewRequest("GET", url+"/v1/progress", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	events := make(chan sseRecord, 256)
	go func() {
		scanner := bufio.NewScanner(resp.Body)
		name := ""
		for scanner.Scan() {
			line := scanner.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				events <- sseRecord{name: name, data: strings.TrimPrefix(line, "data: ")}
			}
		}
	}()
	// Give the subscription a moment to register before work starts.
	time.Sleep(50 * time.Millisecond)
	return events
}

// ciPartial is the decoded "partial" SSE payload of a CI-mode fig4 run.
type ciPartial struct {
	Key   string `json:"key"`
	Seq   int    `json:"seq"`
	Value struct {
		Experiment        string  `json:"experiment"`
		Protocol          string  `json:"protocol"`
		Trials            int     `json:"trials"`
		UncorrectableRate float64 `json:"uncorrectable_rate"`
		RelativeHalfWidth float64 `json:"relative_half_width"`
		Done              bool    `json:"done"`
	} `json:"value"`
}

// TestPartialSSEForCIMode runs a CI-mode fig4 job while subscribed to
// /v1/progress: each protocol must stream monotonically refining partial
// estimates as "partial" events, and the terminal event must carry the value
// the HTTP response reports.
func TestPartialSSEForCIMode(t *testing.T) {
	ts, _ := newTestServer(t)
	events := subscribeSSE(t, ts.URL)

	// At the paper's physical error rates a 0.15 relative half-width needs
	// far more than a 65536-trial cap, so every protocol streams the full
	// doubling schedule (4 refining partials) and terminates capped.  The
	// modest cap keeps the whole burst well inside the subscriber buffer:
	// terminal partials must arrive, not be dropped as overflow.
	url := ts.URL + "/v1/experiments/fig4?format=json&ci=0.15&trials=65536&seed=9"
	bodyCh := make(chan string, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			bodyCh <- ""
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		bodyCh <- string(b)
	}()

	byProtocol := map[string][]ciPartial{}
	doneCount := 0
	deadline := time.After(30 * time.Second)
	for doneCount < 4 {
		select {
		case ev := <-events:
			if ev.name != "partial" {
				continue
			}
			var p ciPartial
			if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
				t.Fatalf("bad partial event %q: %v", ev.data, err)
			}
			byProtocol[p.Value.Protocol] = append(byProtocol[p.Value.Protocol], p)
			if p.Value.Done {
				doneCount++
			}
		case <-deadline:
			t.Fatalf("saw %d terminal partials before deadline (got %v)", doneCount, byProtocol)
		}
	}

	if len(byProtocol) != 4 {
		t.Fatalf("partials for %d protocols, want 4: %v", len(byProtocol), byProtocol)
	}
	for proto, ps := range byProtocol {
		if len(ps) < 3 {
			t.Errorf("%s: streamed %d partials, want at least 3 refinements", proto, len(ps))
		}
		for i, p := range ps {
			if p.Seq != i+1 {
				t.Errorf("%s: partial %d has seq %d, want %d (monotonic order)", proto, i, p.Seq, i+1)
			}
			if i > 0 && p.Value.Trials <= ps[i-1].Value.Trials {
				t.Errorf("%s: partial %d trials %d did not refine past %d", proto, i, p.Value.Trials, ps[i-1].Value.Trials)
			}
			if wantDone := i == len(ps)-1; p.Value.Done != wantDone {
				t.Errorf("%s: partial %d done = %v, want %v", proto, i, p.Value.Done, wantDone)
			}
		}
	}

	// The terminal partials carry the values the response body reports.
	body := <-bodyCh
	var doc struct {
		Sections []struct {
			Blocks []struct {
				Table *struct {
					Rows [][]any `json:"rows"`
				} `json:"table"`
			} `json:"blocks"`
		} `json:"sections"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil || len(doc.Sections) != 1 {
		t.Fatalf("bad fig4 CI response: %v %s", err, body)
	}
	rows := doc.Sections[0].Blocks[0].Table.Rows
	if len(rows) != 4 {
		t.Fatalf("fig4 CI table has %d rows, want 4", len(rows))
	}
	for _, row := range rows {
		proto := row[0].(string)
		rate := row[2].(float64)
		trials := int(row[5].(float64))
		ps := byProtocol[proto]
		last := ps[len(ps)-1]
		if last.Value.UncorrectableRate != rate || last.Value.Trials != trials {
			t.Errorf("%s: terminal partial (rate %v, trials %d) != response row (rate %v, trials %d)",
				proto, last.Value.UncorrectableRate, last.Value.Trials, rate, trials)
		}
	}
}

// TestCIModeClientDisconnectCancelsRun drops the experiment request after
// the first partial estimate: the request must return promptly and the
// sequential-sampling batches must stop publishing.
func TestCIModeClientDisconnectCancelsRun(t *testing.T) {
	exp := core.NewExperiments()
	exp.Engine = engine.New(2)
	srv := New(exp, core.DefaultRunParams())

	var mu sync.Mutex
	count := 0
	first := make(chan struct{})
	inner := exp.Engine.Partial
	exp.Engine.Partial = func(key string, seq int, v any) {
		mu.Lock()
		count++
		if count == 1 {
			close(first)
		}
		mu.Unlock()
		if inner != nil {
			inner(key, seq, v)
		}
	}

	// The tightest half-width the server accepts with the largest trial cap:
	// at physical error rates the run cannot converge early, so without the
	// disconnect it would publish ~11 doubling batches per protocol.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest("GET", "/v1/experiments/fig4?format=json&ci=0.001&trials=10000000&seed=77", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		srv.ServeHTTP(rec, req)
		close(done)
	}()

	select {
	case <-first:
	case <-time.After(30 * time.Second):
		t.Fatal("no partial published")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("request did not return after client disconnect")
	}
	// Publications must stop once the in-flight batches settle; the full
	// run would publish ~44 partials across the four protocols.
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	settled := count
	mu.Unlock()
	time.Sleep(500 * time.Millisecond)
	mu.Lock()
	final := count
	mu.Unlock()
	if final != settled {
		t.Errorf("partials kept arriving after disconnect: %d -> %d", settled, final)
	}
	if final >= 44 {
		t.Errorf("run published all %d partials; disconnect did not cancel the batches", final)
	}
}

// TestSamplingSelectorConflicts checks the typed mutual-exclusion error
// reaches HTTP clients with the allowed combinations spelled out.
func TestSamplingSelectorConflicts(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, q := range []string{
		"sparse=true&bitsliced=true",
		"sparse=true&ci=0.1",
		"sparse=true&bitsliced=true&ci=0.1",
	} {
		status, body, _ := get(t, ts.URL+"/v1/experiments/fig4?"+q)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", q, status, body)
		}
		if !strings.Contains(body, "mutually exclusive") || !strings.Contains(body, "allowed") {
			t.Errorf("%s: error should list the allowed combinations: %s", q, body)
		}
	}
	// conf without ci is a plain validation error, not a conflict.
	status, body, _ := get(t, ts.URL+"/v1/experiments/fig4?conf=0.9")
	if status != http.StatusBadRequest || !strings.Contains(body, "requires ci") {
		t.Errorf("conf without ci: status %d body %s", status, body)
	}
	// CI precision is server-bounded, and NaN is outside every range.
	for _, q := range []string{"ci=0.00001", "ci=0.1&conf=0.99999", "ci=NaN", "ci=0.1&conf=NaN"} {
		status, body, _ := get(t, ts.URL+"/v1/experiments/fig4?"+q)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", q, status, body)
		}
	}
}

// TestBitSlicedSamplingParameter mirrors TestSparseSamplingParameter for the
// bit-sliced executor.
func TestBitSlicedSamplingParameter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two fig4 Monte Carlos")
	}
	ts, _ := newTestServer(t)
	status, dense, _ := get(t, ts.URL+"/v1/experiments/fig4?format=json&trials=20000&seed=5")
	if status != http.StatusOK {
		t.Fatalf("dense fig4: status %d: %s", status, dense)
	}
	status, bs, _ := get(t, ts.URL+"/v1/experiments/fig4?format=json&trials=20000&seed=5&bitsliced=true")
	if status != http.StatusOK {
		t.Fatalf("bitsliced fig4: status %d: %s", status, bs)
	}
	if bs == dense {
		t.Fatal("bitsliced=true returned the dense result; the parameter is not reaching the sampler")
	}
	status, bs2, _ := get(t, ts.URL+"/v1/experiments/fig4?format=json&trials=20000&seed=5&bitsliced=1")
	if status != http.StatusOK || bs2 != bs {
		t.Errorf("bitsliced fig4 not deterministic across requests")
	}
}

// FuzzQueryParams feeds arbitrary raw query strings, parsed as the handler
// parses them, to queryParams: it must never panic, and every query it accepts must leave each numeric setting of
// the core parameter table inside its range and HTTP cap or floor, and not
// NaN.
func FuzzQueryParams(f *testing.F) {
	for _, seed := range []string{
		"", "bits=8&trials=2000", "scale=4096&max-scale=1", "ci=0.001&conf=0.999",
		"ci=NaN", "ci=0.1&conf=NaN", "ci=Inf", "buffer=-1", "tiles=1e3", "bits=0x10",
		"arch=fm&benchmark=qft", "sparse=1&bitsliced=t", "=5&%zz;", "seed=-9223372036854775808",
	} {
		f.Add(seed)
	}
	srv := New(core.NewExperiments(), core.DefaultRunParams())
	f.Fuzz(func(t *testing.T, raw string) {
		exp, p, err := srv.queryParams((&url.URL{RawQuery: raw}).Query())
		if err != nil {
			return
		}
		for _, prm := range core.Params {
			var v float64
			switch field := prm.Field(&exp, &p).(type) {
			case *int:
				v = float64(*field)
			case *float64:
				v = *field
			default:
				continue
			}
			if math.IsNaN(v) || v < prm.Min || prm.Max != 0 && v >= prm.Max ||
				prm.Cap != 0 && v > prm.Cap || v != 0 && v < prm.Floor {
				t.Errorf("query %q accepted %s = %v, outside its range or HTTP bound", raw, prm.Name, v)
			}
		}
	})
}

// TestQueryParamsAllocs guards the per-request cost of reading a warm-path
// query.  ParseArchitecture once built a strings.Replacer on every call:
// 22 allocations and 7.5 KB per call of this query, most of it the
// replacer's tables.
func TestQueryParamsAllocs(t *testing.T) {
	srv := New(core.NewExperiments(), core.DefaultRunParams())
	req := httptest.NewRequest("GET", "/v1/experiments/fig15buf?bits=8&benchmark=QCLA&arch=Fully-Multiplexed&buffer=8&format=json", nil)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := srv.queryParams(req.URL.Query()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 17 {
		t.Errorf("queryParams: %v allocations per request, want at most 17", allocs)
	}
}

// Every experiment answers a request with each numeric parameter at the
// bottom of its range with 200 or 400, never 500: an experiment that cannot
// run with such settings (a mesh scenario on one tile, Shor on one bit)
// says so with a core.RequestError.
func TestMinimumParamsNeverServerError(t *testing.T) {
	ts, _ := newTestServer(t)
	e, p := core.NewExperiments(), core.DefaultRunParams()
	q := url.Values{}
	for _, prm := range core.Params {
		switch prm.Field(&e, &p).(type) {
		case *int, *int64, *float64:
			q.Set(prm.Name, strconv.FormatFloat(prm.Min, 'g', -1, 64))
		}
	}
	for _, id := range append(core.ExperimentIDs(), "all") {
		status, body, _ := get(t, ts.URL+"/v1/experiments/"+id+"?"+q.Encode())
		if status != http.StatusOK && status != http.StatusBadRequest {
			t.Errorf("%s?%s: status %d: %s", id, q.Encode(), status, body)
		}
	}
}
