// Package loadgen is an open-loop HTTP load generator for the experiment
// API: requests fire on a Poisson arrival schedule regardless of how fast
// the server answers, so a saturated server accumulates queueing (and must
// shed) instead of silently slowing the generator down — the failure mode a
// closed-loop benchmark hides.
//
// A run is driven by a Mix: weighted experiment endpoints with per-request
// parameter distributions, a cache-hit ratio knob (that fraction of requests
// replays an earlier request's exact parameters, exercising the engine's
// fingerprint cache), and an SSE fraction (that fraction of arrivals opens a
// /v1/progress subscription held to the end of the run).  Latencies land in
// the HDR-style obs.Histogram the server's metrics share; the Result reports
// p50/p90/p99/p999, shed (429) and error counts, and achieved versus offered
// rate.
//
// The whole schedule — arrival times, endpoint choices, parameters, replay
// picks — is generated up front from Config.Seed, so two runs against the
// same server are identical load.
package loadgen

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"speedofdata/internal/obs"
)

// Endpoint is one weighted entry of a workload mix.
type Endpoint struct {
	// ID is the experiment id requested as /v1/experiments/{id}.
	ID string
	// Weight is the relative probability of choosing this endpoint.
	Weight float64
	// Params draws the query parameters of one request; nil means none.
	Params func(r *rand.Rand) url.Values
}

// Mix is the workload specification of a run.
type Mix struct {
	// Endpoints are the weighted experiment requests.
	Endpoints []Endpoint
	// CacheHit in [0, 1] is the fraction of requests that replay the exact
	// URL of an earlier request in the schedule (a guaranteed fingerprint
	// cache hit once the first occurrence completes).
	CacheHit float64
	// SSE in [0, 1] is the fraction of arrivals that open a /v1/progress
	// subscription (held until the run ends) instead of an experiment
	// request.
	SSE float64
}

// Config parameterises one load run.
type Config struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Rate is the offered arrival rate in requests per second.
	Rate float64
	// Duration is the span of the arrival schedule.  The run waits for
	// in-flight requests (up to Timeout) after the last arrival.
	Duration time.Duration
	// Seed makes the schedule deterministic.
	Seed int64
	// Mix is the workload; it must contain at least one endpoint.
	Mix Mix
	// Timeout bounds one request; 0 means 30s.
	Timeout time.Duration
	// Client overrides the HTTP client (its Timeout is ignored in favour of
	// per-request contexts); nil uses a pooled default.
	Client *http.Client
}

// Validate rejects configurations that cannot drive a run.
func (c Config) Validate() error {
	if c.BaseURL == "" {
		return errors.New("loadgen: BaseURL is required")
	}
	if c.Rate <= 0 {
		return fmt.Errorf("loadgen: Rate must be positive, got %v", c.Rate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: Duration must be positive, got %v", c.Duration)
	}
	if len(c.Mix.Endpoints) == 0 {
		return errors.New("loadgen: Mix needs at least one endpoint")
	}
	for _, e := range c.Mix.Endpoints {
		if e.ID == "" || e.Weight < 0 {
			return fmt.Errorf("loadgen: bad endpoint %+v", e)
		}
	}
	if c.Mix.CacheHit < 0 || c.Mix.CacheHit > 1 {
		return fmt.Errorf("loadgen: CacheHit must be in [0,1], got %v", c.Mix.CacheHit)
	}
	if c.Mix.SSE < 0 || c.Mix.SSE > 1 {
		return fmt.Errorf("loadgen: SSE must be in [0,1], got %v", c.Mix.SSE)
	}
	return nil
}

// Result is the outcome of one load run.
type Result struct {
	// OfferedPerSec is the configured arrival rate; AchievedPerSec is the
	// completed-request rate actually measured over the run.
	OfferedPerSec  float64 `json:"offered_per_sec"`
	AchievedPerSec float64 `json:"achieved_per_sec"`
	// Sent counts experiment requests fired; OK those answered 2xx; Shed
	// those answered 429; Errors transport failures and other non-2xx.
	Sent   int64 `json:"sent"`
	OK     int64 `json:"ok"`
	Shed   int64 `json:"shed"`
	Errors int64 `json:"errors"`
	// Errors decomposed: Timeouts are requests the per-request deadline
	// killed, TransportErrors every other failure before an HTTP status
	// arrived (refused connection, reset, bad URL), and HTTPErrors responses
	// that did arrive with a non-2xx, non-429 status.  The three sum to
	// Errors, so a saturated server (timeouts) reads differently from a dead
	// one (transport) or a broken workload (HTTP status).
	Timeouts        int64 `json:"timeouts"`
	TransportErrors int64 `json:"transport_errors"`
	HTTPErrors      int64 `json:"http_errors"`
	// RetryAfterSeen counts 429 responses that carried a Retry-After header
	// (every shed should).
	RetryAfterSeen int64 `json:"retry_after_seen"`
	// SSESessions is the number of progress subscriptions held open;
	// SSEEvents the total events they received.
	SSESessions int64 `json:"sse_sessions"`
	SSEEvents   int64 `json:"sse_events"`
	// Latency quantiles of successful (2xx) requests, reported in
	// nanoseconds like time.Duration.
	P50  time.Duration `json:"p50_ns"`
	P90  time.Duration `json:"p90_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
	Max  time.Duration `json:"max_ns"`
	// ByStatus counts responses per HTTP status code.
	ByStatus map[int]int64 `json:"by_status"`
}

// plannedRequest is one precomputed arrival of the schedule.
type plannedRequest struct {
	at  time.Duration // offset from run start
	url string        // full request URL ("" marks an SSE arrival)
}

// plan expands the config into the deterministic arrival schedule.
func plan(cfg Config) []plannedRequest {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var totalWeight float64
	for _, e := range cfg.Mix.Endpoints {
		totalWeight += e.Weight
	}
	pick := func() Endpoint {
		x := rng.Float64() * totalWeight
		for _, e := range cfg.Mix.Endpoints {
			if x -= e.Weight; x < 0 {
				return e
			}
		}
		return cfg.Mix.Endpoints[len(cfg.Mix.Endpoints)-1]
	}
	var (
		reqs []plannedRequest
		past []string // URLs already scheduled, for cache-hit replay
		at   time.Duration
	)
	for {
		// Poisson arrivals: exponential inter-arrival gaps at the offered rate.
		at += time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		if at > cfg.Duration {
			return reqs
		}
		if rng.Float64() < cfg.Mix.SSE {
			reqs = append(reqs, plannedRequest{at: at})
			continue
		}
		var u string
		if len(past) > 0 && rng.Float64() < cfg.Mix.CacheHit {
			u = past[rng.Intn(len(past))]
		} else {
			e := pick()
			u = cfg.BaseURL + "/v1/experiments/" + e.ID
			if e.Params != nil {
				if q := e.Params(rng).Encode(); q != "" {
					u += "?" + q
				}
			}
			past = append(past, u)
		}
		reqs = append(reqs, plannedRequest{at: at, url: u})
	}
}

// Run executes the load schedule against cfg.BaseURL and reports the
// measured result.  ctx aborts the run early (in-flight requests are
// cancelled); the schedule itself always runs to cfg.Duration otherwise.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 128,
			MaxConnsPerHost:     0,
		}}
	}

	schedule := plan(cfg)
	res := Result{OfferedPerSec: cfg.Rate, ByStatus: map[int]int64{}}
	var (
		hist      obs.Histogram
		mu        sync.Mutex // guards ByStatus
		wg        sync.WaitGroup
		sseWG     sync.WaitGroup
		sent      atomic.Int64
		ok        atomic.Int64
		shed      atomic.Int64
		errs      atomic.Int64
		timeouts  atomic.Int64
		transport atomic.Int64
		httpErrs  atomic.Int64
		retrySaw  atomic.Int64
		sseN      atomic.Int64
		sseEv     atomic.Int64
	)
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	sseCtx, cancelSSE := context.WithCancel(runCtx)
	defer cancelSSE()

	record := func(status int) {
		mu.Lock()
		res.ByStatus[status]++
		mu.Unlock()
	}

	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for _, pr := range schedule {
		// Open loop: wait until the scheduled arrival, then fire without
		// waiting for earlier requests — server slowness must not throttle us.
		wait := pr.at - time.Since(start)
		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-runCtx.Done():
				return res, runCtx.Err()
			}
		}
		if pr.url == "" {
			sseWG.Add(1)
			sseN.Add(1)
			go func() {
				defer sseWG.Done()
				subscribeProgress(sseCtx, client, cfg.BaseURL, &sseEv)
			}()
			continue
		}
		sent.Add(1)
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			reqCtx, cancel := context.WithTimeout(runCtx, timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(reqCtx, "GET", u, nil)
			if err != nil {
				errs.Add(1)
				transport.Add(1)
				return
			}
			t0 := time.Now()
			resp, err := client.Do(req)
			if err != nil {
				errs.Add(1)
				if isTimeout(err) {
					timeouts.Add(1)
				} else {
					transport.Add(1)
				}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			elapsed := time.Since(t0)
			record(resp.StatusCode)
			switch {
			case resp.StatusCode >= 200 && resp.StatusCode < 300:
				ok.Add(1)
				hist.Record(elapsed)
			case resp.StatusCode == http.StatusTooManyRequests:
				shed.Add(1)
				if resp.Header.Get("Retry-After") != "" {
					retrySaw.Add(1)
				}
			default:
				errs.Add(1)
				httpErrs.Add(1)
			}
		}(pr.url)
	}
	wg.Wait()
	// The offered window spans the whole schedule even when the last
	// requests finish early; only responses outliving it stretch the
	// measurement window.
	elapsed := time.Since(start)
	if elapsed < cfg.Duration {
		elapsed = cfg.Duration
	}
	// SSE sessions hold to the end of the run by design; release them now.
	cancelSSE()
	sseWG.Wait()

	res.Sent = sent.Load()
	res.OK = ok.Load()
	res.Shed = shed.Load()
	res.Errors = errs.Load()
	res.Timeouts = timeouts.Load()
	res.TransportErrors = transport.Load()
	res.HTTPErrors = httpErrs.Load()
	res.RetryAfterSeen = retrySaw.Load()
	res.SSESessions = sseN.Load()
	res.SSEEvents = sseEv.Load()
	if secs := elapsed.Seconds(); secs > 0 {
		res.AchievedPerSec = float64(res.OK+res.Shed+res.Errors) / secs
	}
	res.P50 = hist.Quantile(0.50)
	res.P90 = hist.Quantile(0.90)
	res.P99 = hist.Quantile(0.99)
	res.P999 = hist.Quantile(0.999)
	res.Max = hist.Max()
	return res, ctx.Err()
}

// isTimeout reports whether a request failed on its deadline rather than on
// the wire.  client.Do wraps the cause in a *url.Error, so this checks both
// the context sentinel and the net.Error timeout flag.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// subscribeProgress holds one /v1/progress subscription open until ctx
// cancels, counting the events it receives.
func subscribeProgress(ctx context.Context, client *http.Client, baseURL string, events *atomic.Int64) {
	req, err := http.NewRequestWithContext(ctx, "GET", baseURL+"/v1/progress", nil)
	if err != nil {
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		if strings.HasPrefix(scanner.Text(), "data: ") {
			events.Add(1)
		}
	}
}
