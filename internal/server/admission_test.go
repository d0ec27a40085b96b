package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/report"
)

// blockingStub is a runReport stand-in whose requests block until released,
// so tests saturate the admission gate with perfectly controlled timing
// instead of real workloads.
type blockingStub struct {
	started chan struct{} // receives one token per request that begins
	release chan struct{} // closed (or fed) to let blocked requests finish
}

func newBlockingStub() *blockingStub {
	return &blockingStub{
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (b *blockingStub) run(ctx context.Context, exp core.Experiments, p core.RunParams, ids []string) (report.Document, error) {
	b.started <- struct{}{}
	select {
	case <-b.release:
		var doc report.Document
		doc.Sections = append(doc.Sections, report.Section{ID: ids[0]})
		return doc, nil
	case <-ctx.Done():
		return report.Document{}, ctx.Err()
	}
}

// newAdmissionServer builds an httptest server with the given admission
// config and the blocking stub wired in place of real experiment execution.
func newAdmissionServer(t *testing.T, cfg Config) (*httptest.Server, *Server, *blockingStub) {
	t.Helper()
	exp := core.NewExperiments()
	exp.Engine = engine.New(2)
	srv := NewWithConfig(exp, core.DefaultRunParams(), cfg)
	stub := newBlockingStub()
	srv.runReport = stub.run
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, stub
}

// asyncGet fires a GET and delivers the response on a channel.
type getResult struct {
	status     int
	body       string
	retryAfter string
	err        error
}

func asyncGet(url string) chan getResult {
	ch := make(chan getResult, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			ch <- getResult{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ch <- getResult{
			status:     resp.StatusCode,
			body:       string(body),
			retryAfter: resp.Header.Get("Retry-After"),
		}
	}()
	return ch
}

func getHealth(t *testing.T, baseURL string) healthStatus {
	t.Helper()
	status, body, _ := get(t, baseURL+"/v1/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: status %d: %s", status, body)
	}
	var st healthStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("healthz: bad body %q: %v", body, err)
	}
	return st
}

// TestAdmissionSaturationSheds saturates a 1-slot/1-queue gate and checks
// the full ordering: first request admitted, second queued, third shed with
// 429 + Retry-After, then release drains everything and the gauges return to
// zero while the totals record what happened.
func TestAdmissionSaturationSheds(t *testing.T) {
	ts, _, stub := newAdmissionServer(t, Config{
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueTimeout:  10 * time.Second,
	})
	url := ts.URL + "/v1/experiments/table1"

	// First request occupies the only slot.
	first := asyncGet(url)
	<-stub.started
	if st := getHealth(t, ts.URL); st.InFlight != 1 || st.QueueDepth != 0 {
		t.Fatalf("after first admit: in_flight=%d queue_depth=%d, want 1/0", st.InFlight, st.QueueDepth)
	}

	// Second request queues.  Poll the gauge: the queue entry is the signal
	// that it arrived (it never reaches the stub while the slot is held).
	second := asyncGet(url)
	deadline := time.Now().Add(5 * time.Second)
	for getHealth(t, ts.URL).QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Third request finds slot and queue full: shed immediately.
	res := <-asyncGet(url)
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.status != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429 (%s)", res.status, res.body)
	}
	if res.retryAfter == "" {
		t.Error("saturated request: missing Retry-After header")
	}
	if !strings.Contains(res.body, "saturated") {
		t.Errorf("saturated request: body should explain the shed: %s", res.body)
	}

	// Releasing the stub drains slot then queue; both callers succeed.
	close(stub.release)
	for _, ch := range []chan getResult{first, second} {
		res := <-ch
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.status != http.StatusOK {
			t.Fatalf("admitted request: status %d (%s)", res.status, res.body)
		}
	}

	st := getHealth(t, ts.URL)
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Errorf("after drain: in_flight=%d queue_depth=%d, want 0/0", st.InFlight, st.QueueDepth)
	}
	if st.Admitted != 2 {
		t.Errorf("admitted total %d, want 2", st.Admitted)
	}
	if st.Shed != 1 {
		t.Errorf("shed total %d, want 1", st.Shed)
	}
	if st.Status != "ok" {
		t.Errorf("status %q, want ok", st.Status)
	}
	if st.QueueCapacity != 1 || st.MaxConcurrent != 1 {
		t.Errorf("capacity gauges %d/%d, want 1/1", st.QueueCapacity, st.MaxConcurrent)
	}
}

// TestAdmissionQueueTimeout parks a request in the queue past QueueTimeout
// and expects a 429 with Retry-After, not an indefinite wait.
func TestAdmissionQueueTimeout(t *testing.T) {
	ts, _, stub := newAdmissionServer(t, Config{
		MaxConcurrent: 1,
		MaxQueue:      4,
		QueueTimeout:  50 * time.Millisecond,
	})
	url := ts.URL + "/v1/experiments/table1"

	first := asyncGet(url)
	<-stub.started

	res := <-asyncGet(url) // queues, then times out: the slot never frees
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.status != http.StatusTooManyRequests {
		t.Fatalf("queued request: status %d, want 429 (%s)", res.status, res.body)
	}
	if res.retryAfter == "" {
		t.Error("queue-timeout shed: missing Retry-After header")
	}

	close(stub.release)
	if res := <-first; res.status != http.StatusOK {
		t.Fatalf("first request: status %d", res.status)
	}
}

// TestRequestDeadline cancels an admitted run at RequestTimeout and expects
// 503 + Retry-After: the server protected its pool; the request was fine.
func TestRequestDeadline(t *testing.T) {
	ts, _, _ := newAdmissionServer(t, Config{
		MaxConcurrent:  2,
		MaxQueue:       2,
		QueueTimeout:   time.Second,
		RequestTimeout: 50 * time.Millisecond,
	})
	// The stub blocks until ctx.Done and returns ctx.Err(), exactly like a
	// real engine batch under cancellation.
	res := <-asyncGet(ts.URL + "/v1/experiments/table1")
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.status != http.StatusServiceUnavailable {
		t.Fatalf("deadline-exceeded run: status %d, want 503 (%s)", res.status, res.body)
	}
	if res.retryAfter == "" {
		t.Error("deadline-exceeded run: missing Retry-After header")
	}
	if !strings.Contains(res.body, "deadline") {
		t.Errorf("deadline-exceeded run: body should explain: %s", res.body)
	}
}

// TestRateLimiterClock drives the token bucket with a fake clock: burst
// spends, empty bucket refuses with the accrual wait, refill restores.
func TestRateLimiterClock(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newRateLimiter(2, 4) // 2 tokens/s, burst 4
	l.now = func() time.Time { return now }

	for i := 0; i < 4; i++ {
		if _, ok := l.allow("a"); !ok {
			t.Fatalf("burst request %d refused", i)
		}
	}
	wait, ok := l.allow("a")
	if ok {
		t.Fatal("5th immediate request allowed past burst")
	}
	if wait <= 0 || wait > time.Second {
		t.Errorf("refusal wait %v, want in (0, 1s] at 2 tokens/s", wait)
	}
	// Other clients have their own buckets.
	if _, ok := l.allow("b"); !ok {
		t.Error("unrelated client throttled")
	}
	// Half a second accrues one token at 2/s.
	now = now.Add(500 * time.Millisecond)
	if _, ok := l.allow("a"); !ok {
		t.Error("request refused after refill")
	}
	if _, ok := l.allow("a"); ok {
		t.Error("second request allowed on a single accrued token")
	}
	if l.limitedCount() != 2 {
		t.Errorf("limited count %d, want 2", l.limitedCount())
	}

	// The sweep drops fully-refilled buckets and keeps depleted ones.
	now = now.Add(10 * time.Second) // "a" and "b" both refill to burst
	l.allow("c")                    // c is fresh: burst-1 tokens, not full
	l.mu.Lock()
	l.sweep(l.now())
	kept := len(l.clients)
	_, hasC := l.clients["c"]
	l.mu.Unlock()
	if kept != 1 || !hasC {
		t.Errorf("sweep kept %d clients (c present: %v), want only the depleted one", kept, hasC)
	}
}

// TestRateLimitEndpoint exercises the limiter over HTTP: burst passes, the
// next request gets 429 + Retry-After before any parsing, and healthz counts
// it.  httptest connections come from one host, so one bucket applies.
func TestRateLimitEndpoint(t *testing.T) {
	ts, _, stub := newAdmissionServer(t, Config{
		MaxConcurrent:  4,
		MaxQueue:       4,
		QueueTimeout:   time.Second,
		RatePerClient:  0.001, // effectively no refill within the test
		BurstPerClient: 2,
	})
	close(stub.release) // no blocking: this test is about the limiter
	url := ts.URL + "/v1/experiments/table1"

	for i := 0; i < 2; i++ {
		res := <-asyncGet(url)
		if res.status != http.StatusOK {
			t.Fatalf("burst request %d: status %d (%s)", i, res.status, res.body)
		}
	}
	res := <-asyncGet(url)
	if res.status != http.StatusTooManyRequests {
		t.Fatalf("over-rate request: status %d, want 429 (%s)", res.status, res.body)
	}
	if res.retryAfter == "" {
		t.Error("over-rate request: missing Retry-After header")
	}
	if !strings.Contains(res.body, "rate limit") {
		t.Errorf("over-rate request: body should name the limiter: %s", res.body)
	}
	// healthz is not gated or rate-limited and reports the refusal.
	if st := getHealth(t, ts.URL); st.RateLimited != 1 {
		t.Errorf("rate_limited %d, want 1", st.RateLimited)
	}
}

// TestConfigValidate enumerates the operator misconfigurations Validate
// must refuse and the zero/default values it must accept.
func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config: %v", err)
	}
	if err := (Config{}).withDefaults().Validate(); err != nil {
		t.Errorf("default config: %v", err)
	}
	bad := []Config{
		{MaxConcurrent: -1},
		{MaxQueue: -1},
		{QueueTimeout: -time.Second},
		{RequestTimeout: -time.Second},
		{RatePerClient: -0.5},
		{BurstPerClient: -2},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%+v: expected a validation error", cfg)
		}
	}
	// withDefaults resolves burst from rate.
	c := Config{RatePerClient: 2.5}.withDefaults()
	if c.BurstPerClient != 3 {
		t.Errorf("derived burst %d, want ceil(2.5)=3", c.BurstPerClient)
	}
	if c.MaxConcurrent != DefaultMaxConcurrent() || c.MaxQueue != DefaultMaxQueue {
		t.Errorf("defaults not applied: %+v", c)
	}
}

// TestShutdownDrains covers the graceful-shutdown contract: after
// Server.Shutdown, new experiment requests get 503, new SSE subscriptions
// get 503, an established SSE stream ends cleanly (EOF after a complete
// frame, not a reset), and healthz reports "draining".
func TestShutdownDrains(t *testing.T) {
	ts, srv, stub := newAdmissionServer(t, Config{
		MaxConcurrent: 2,
		MaxQueue:      2,
		QueueTimeout:  time.Second,
	})
	close(stub.release)

	// Established SSE stream, reading in the background.
	resp, err := http.Get(ts.URL + "/v1/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	streamDone := make(chan error, 1)
	streamBody := make(chan string, 1)
	go func() {
		b, err := io.ReadAll(resp.Body)
		streamBody <- string(b)
		streamDone <- err
	}()

	srv.Shutdown()

	// The established stream must close cleanly: ReadAll returns nil error
	// (EOF), and the shutdown comment frame arrived intact.
	select {
	case err := <-streamDone:
		if err != nil {
			t.Errorf("SSE stream ended with %v, want clean EOF", err)
		}
		if body := <-streamBody; !strings.Contains(body, "server shutting down") {
			t.Errorf("SSE stream missing the shutdown frame: %q", body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream did not close after Shutdown")
	}

	// New experiment requests and SSE subscriptions are refused with 503.
	res := <-asyncGet(ts.URL + "/v1/experiments/table1")
	if res.status != http.StatusServiceUnavailable {
		t.Errorf("experiment during drain: status %d, want 503 (%s)", res.status, res.body)
	}
	status, body, _ := get(t, ts.URL+"/v1/progress")
	if status != http.StatusServiceUnavailable {
		t.Errorf("SSE during drain: status %d (%s)", status, body)
	}

	// healthz keeps answering (load balancers poll it during drain).
	if st := getHealth(t, ts.URL); st.Status != "draining" {
		t.Errorf("healthz status %q, want draining", st.Status)
	}

	// Shutdown is idempotent.
	srv.Shutdown()
}

// TestShutdownWhileRequestInFlight checks an admitted request finishes after
// Shutdown is called: draining refuses new work but does not abort old work.
func TestShutdownWhileRequestInFlight(t *testing.T) {
	ts, srv, stub := newAdmissionServer(t, Config{
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueTimeout:  time.Second,
	})
	first := asyncGet(ts.URL + "/v1/experiments/table1")
	<-stub.started
	srv.Shutdown()
	close(stub.release)
	res := <-first
	if res.status != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d (%s)", res.status, res.body)
	}
}
