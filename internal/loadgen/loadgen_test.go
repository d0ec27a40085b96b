package loadgen

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPlanDeterministic checks the schedule is a pure function of the seed
// and respects the mix: arrival count near rate*duration, cache-hit
// fraction producing URL replays, SSE fraction producing subscriptions.
func TestPlanDeterministic(t *testing.T) {
	cfg := Config{
		BaseURL:  "http://test",
		Rate:     1000,
		Duration: 2 * time.Second,
		Seed:     42,
		Mix: Mix{
			CacheHit: 0.5,
			SSE:      0.1,
			Endpoints: []Endpoint{
				{ID: "table1", Weight: 3},
				{ID: "fig4", Weight: 1, Params: func(r *rand.Rand) url.Values {
					return url.Values{"seed": {fmt.Sprint(r.Intn(1000))}}
				}},
			},
		},
	}
	a, b := plan(cfg), plan(cfg)
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedule lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, schedules diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg.Seed = 43
	if c := plan(cfg); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical schedules")
		}
	}

	// ~2000 expected arrivals; Poisson fluctuation is ~sqrt(2000)≈45.
	if n := len(a); math.Abs(float64(n)-2000) > 250 {
		t.Errorf("schedule has %d arrivals, want ≈2000", n)
	}
	var sse, replays, table1, fig4 int
	seen := map[string]int{}
	for _, pr := range a {
		switch {
		case pr.url == "":
			sse++
		default:
			if seen[pr.url] > 0 {
				replays++
			}
			seen[pr.url]++
			if strings.Contains(pr.url, "table1") {
				table1++
			} else {
				fig4++
			}
		}
	}
	if frac := float64(sse) / float64(len(a)); math.Abs(frac-0.1) > 0.03 {
		t.Errorf("SSE fraction %.3f, want ≈0.10", frac)
	}
	// CacheHit=0.5 replays at least that fraction (weighted endpoints can
	// also collide naturally, e.g. parameterless table1).
	if frac := float64(replays) / float64(table1+fig4); frac < 0.4 {
		t.Errorf("replay fraction %.3f, want ≥0.4 with CacheHit=0.5", frac)
	}
	if table1 < 2*fig4 {
		t.Errorf("weights not respected: table1=%d fig4=%d, want ≈3:1", table1, fig4)
	}
	// Arrivals are sorted and within the duration.
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	if last := a[len(a)-1].at; last > cfg.Duration {
		t.Errorf("arrival past duration: %v", last)
	}
}

// stubServer answers /v1/experiments/* after a fixed delay and streams
// events on /v1/progress, so Run is tested without a real engine.
func stubServer(t *testing.T, delay time.Duration, status func(r *http.Request) int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/experiments/", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		time.Sleep(delay)
		code := http.StatusOK
		if status != nil {
			code = status(r)
		}
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		w.WriteHeader(code)
		fmt.Fprintln(w, `{"sections":[]}`)
	})
	mux.HandleFunc("/v1/progress", func(w http.ResponseWriter, r *http.Request) {
		f := w.(http.Flusher)
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-r.Context().Done():
				return
			case <-tick.C:
				fmt.Fprintf(w, "event: job\ndata: {\"done\":%d}\n\n", i)
				f.Flush()
			}
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &hits
}

func baseMix() Mix {
	return Mix{Endpoints: []Endpoint{{ID: "table1", Weight: 1}}}
}

// TestRunMeasuresLatency drives the stub at a modest rate and checks the
// counters and quantiles reflect the stub's behavior.
func TestRunMeasuresLatency(t *testing.T) {
	const delay = 20 * time.Millisecond
	ts, hits := stubServer(t, delay, nil)
	res, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Rate:     100,
		Duration: 500 * time.Millisecond,
		Seed:     7,
		Mix:      baseMix(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.OK != res.Sent || res.Errors != 0 || res.Shed != 0 {
		t.Fatalf("sent=%d ok=%d shed=%d errors=%d; want all sent OK", res.Sent, res.OK, res.Shed, res.Errors)
	}
	if hits.Load() != res.Sent {
		t.Errorf("server saw %d requests, generator sent %d", hits.Load(), res.Sent)
	}
	if res.P50 < delay || res.P50 > delay+100*time.Millisecond {
		t.Errorf("p50 %v implausible for a %v stub", res.P50, delay)
	}
	if res.P99 < res.P50 || res.P999 < res.P99 || res.Max < res.P999 {
		t.Errorf("quantiles not ordered: p50=%v p99=%v p999=%v max=%v", res.P50, res.P99, res.P999, res.Max)
	}
	if res.OfferedPerSec != 100 {
		t.Errorf("offered %v, want 100", res.OfferedPerSec)
	}
	if res.AchievedPerSec <= 0 {
		t.Errorf("achieved rate %v, want positive", res.AchievedPerSec)
	}
	if res.ByStatus[http.StatusOK] != res.OK {
		t.Errorf("ByStatus[200]=%d, want %d", res.ByStatus[http.StatusOK], res.OK)
	}
}

// TestRunCountsShedAndErrors makes the stub shed every third request with
// 429 + Retry-After and fail every fifth with 500, and checks the
// classification.
func TestRunCountsShedAndErrors(t *testing.T) {
	var n atomic.Int64
	ts, _ := stubServer(t, 0, func(r *http.Request) int {
		switch n.Add(1) % 5 {
		case 0:
			return http.StatusInternalServerError
		case 1, 2:
			return http.StatusTooManyRequests
		default:
			return http.StatusOK
		}
	})
	res, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Rate:     200,
		Duration: 300 * time.Millisecond,
		Seed:     11,
		Mix:      baseMix(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 || res.Errors == 0 || res.OK == 0 {
		t.Fatalf("expected a mix of outcomes: %+v", res)
	}
	if res.RetryAfterSeen != res.Shed {
		t.Errorf("RetryAfterSeen=%d, want every shed (%d)", res.RetryAfterSeen, res.Shed)
	}
	if res.OK+res.Shed+res.Errors != res.Sent {
		t.Errorf("outcomes %d+%d+%d don't add to sent %d", res.OK, res.Shed, res.Errors, res.Sent)
	}
	if res.ByStatus[429] != res.Shed {
		t.Errorf("ByStatus[429]=%d, want %d", res.ByStatus[429], res.Shed)
	}
	// Every error here arrived as an HTTP status (500), not on the wire.
	if res.HTTPErrors != res.Errors || res.TransportErrors != 0 || res.Timeouts != 0 {
		t.Errorf("error decomposition http=%d transport=%d timeout=%d, want all %d HTTP",
			res.HTTPErrors, res.TransportErrors, res.Timeouts, res.Errors)
	}
}

// TestRunClassifiesTransportErrors points the generator at a closed listener:
// every request dies on connect, so the errors are transport, not HTTP.
func TestRunClassifiesTransportErrors(t *testing.T) {
	ts, _ := stubServer(t, 0, nil)
	ts.Close() // keep the URL, kill the listener
	res, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Rate:     100,
		Duration: 200 * time.Millisecond,
		Seed:     5,
		Mix:      baseMix(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.Errors != res.Sent {
		t.Fatalf("sent=%d errors=%d; want every request to fail", res.Sent, res.Errors)
	}
	if res.TransportErrors != res.Errors || res.HTTPErrors != 0 {
		t.Errorf("refused connections classified as transport=%d http=%d timeout=%d, want all %d transport",
			res.TransportErrors, res.HTTPErrors, res.Timeouts, res.Errors)
	}
	if len(res.ByStatus) != 0 {
		t.Errorf("no response ever arrived, but ByStatus=%v", res.ByStatus)
	}
}

// TestRunClassifiesTimeouts gives requests a deadline shorter than the
// stub's delay: every request dies on its per-request timeout.
func TestRunClassifiesTimeouts(t *testing.T) {
	ts, _ := stubServer(t, 500*time.Millisecond, nil)
	res, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Rate:     50,
		Duration: 200 * time.Millisecond,
		Seed:     9,
		Timeout:  50 * time.Millisecond,
		Mix:      baseMix(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.Errors != res.Sent {
		t.Fatalf("sent=%d errors=%d; want every request to time out", res.Sent, res.Errors)
	}
	if res.Timeouts != res.Errors || res.OK != 0 {
		t.Errorf("deadline kills classified as timeout=%d transport=%d http=%d, want all %d timeouts",
			res.Timeouts, res.TransportErrors, res.HTTPErrors, res.Errors)
	}
	if res.Timeouts+res.TransportErrors+res.HTTPErrors != res.Errors {
		t.Errorf("decomposition %d+%d+%d doesn't add to errors %d",
			res.Timeouts, res.TransportErrors, res.HTTPErrors, res.Errors)
	}
}

// TestRunSSESessions checks the SSE fraction opens progress subscriptions
// that collect events until the run ends.
func TestRunSSESessions(t *testing.T) {
	ts, _ := stubServer(t, 0, nil)
	mix := baseMix()
	mix.SSE = 0.5
	res, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Rate:     50,
		Duration: 400 * time.Millisecond,
		Seed:     3,
		Mix:      mix,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SSESessions == 0 {
		t.Fatal("no SSE sessions opened with SSE=0.5")
	}
	if res.SSEEvents == 0 {
		t.Error("SSE sessions received no events from the streaming stub")
	}
}

// TestRunContextCancel aborts a run mid-schedule.
func TestRunContextCancel(t *testing.T) {
	ts, _ := stubServer(t, 0, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, Config{
		BaseURL:  ts.URL,
		Rate:     10,
		Duration: 10 * time.Second,
		Seed:     1,
		Mix:      baseMix(),
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}

// TestConfigValidation enumerates rejected configurations.
func TestConfigValidation(t *testing.T) {
	good := Config{BaseURL: "http://x", Rate: 1, Duration: time.Second, Mix: baseMix()}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Rate: 1, Duration: time.Second, Mix: baseMix()},
		{BaseURL: "http://x", Duration: time.Second, Mix: baseMix()},
		{BaseURL: "http://x", Rate: -1, Duration: time.Second, Mix: baseMix()},
		{BaseURL: "http://x", Rate: 1, Mix: baseMix()},
		{BaseURL: "http://x", Rate: 1, Duration: time.Second},
		{BaseURL: "http://x", Rate: 1, Duration: time.Second, Mix: Mix{CacheHit: 2, Endpoints: baseMix().Endpoints}},
		{BaseURL: "http://x", Rate: 1, Duration: time.Second, Mix: Mix{SSE: -0.1, Endpoints: baseMix().Endpoints}},
		{BaseURL: "http://x", Rate: 1, Duration: time.Second, Mix: Mix{Endpoints: []Endpoint{{ID: "", Weight: 1}}}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}
