package server

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/obs"
	"speedofdata/internal/store"
)

// The serving tier's two perf gates.  Each runs once per benchmark
// iteration and fails the benchmark when its budget is broken; CI runs them
// at -benchtime 1x.

// gateServer starts a server built like `qsd serve` at 16 bits, with st
// (when non-nil) as the engine's disk tier.
func gateServer(cfg Config, st *store.Store) *httptest.Server {
	exp := core.NewExperiments()
	exp.Bits = 16
	exp.Engine = engine.New(0)
	exp.Engine.CacheLimit = 1 << 14
	if st != nil {
		exp.Engine.Backend = st
	}
	return httptest.NewServer(NewWithConfig(exp, core.DefaultRunParams(), cfg))
}

// timedGet fetches base+path, requires 200, and returns the round-trip time.
func timedGet(b *testing.B, base, path string) time.Duration {
	b.Helper()
	t0 := time.Now()
	resp, err := http.Get(base + path)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("%s: status %d", path, resp.StatusCode)
	}
	return time.Since(t0)
}

func p50(d []time.Duration) time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	return s[len(s)/2]
}

// BenchmarkWarmRestartGate warms a store-backed server once, then tears it
// down and rebuilds it (fresh engine, same store directory) 11 times.  The
// first request after each restart must be a store hit, and its p50 must be
// within 5x of the in-memory warm p50 and at least 20x faster than
// recomputing.
func BenchmarkWarmRestartGate(b *testing.B) {
	const (
		restarts = 11
		warmURL  = "/v1/experiments/fig4?seed=1&trials=5000"
	)
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		open := func() *store.Store {
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			return st
		}
		st := open()
		ts := gateServer(Config{}, st)
		timedGet(b, ts.URL, warmURL) // computed once, written through
		var memWarm, recompute, restart []time.Duration
		for k := 0; k < restarts; k++ {
			memWarm = append(memWarm, timedGet(b, ts.URL, warmURL))
		}
		for k := 0; k < restarts; k++ {
			// Fresh seeds miss both cache tiers.
			recompute = append(recompute,
				timedGet(b, ts.URL, fmt.Sprintf("/v1/experiments/fig4?seed=%d&trials=5000", 100000+k)))
		}
		ts.Close()
		st.Close()
		for k := 0; k < restarts; k++ {
			st := open()
			ts := gateServer(Config{}, st)
			// Prime the connection as the warm samples' keep-alive one is;
			// healthz touches no cache tier.
			timedGet(b, ts.URL, "/v1/healthz")
			restart = append(restart, timedGet(b, ts.URL, warmURL))
			if st.Stats().Hits == 0 {
				b.Errorf("restart %d: request was not served from the persistent store", k)
			}
			ts.Close()
			st.Close()
		}
		restartP50, memP50, recomputeP50 := p50(restart), p50(memWarm), p50(recompute)
		b.ReportMetric(float64(restartP50.Microseconds())/1e3, "warm-restart-p50-ms")
		if restartP50 > 5*memP50 {
			b.Errorf("warm-restart p50 %v exceeds 5x in-memory warm p50 %v", restartP50, memP50)
		}
		if recomputeP50 < 20*restartP50 {
			b.Errorf("warm-restart p50 %v is not >= 20x faster than recomputing (p50 %v)", restartP50, recomputeP50)
		}
	}
}

// BenchmarkInstrumentationOverheadGate drives the same cache-warm open loop
// against a plain server and one carrying the observability layer (metrics
// registry and request tracing; the access log stays off).  A cache-warm
// request is almost pure per-request overhead, so the instrumented p50 must
// stay within 5% of the plain p50, plus 1 ms for timer and scheduling noise.
func BenchmarkInstrumentationOverheadGate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain, instr := p50(warmLoad(b, Config{})), p50(warmLoad(b, Config{Obs: obs.New()}))
		b.ReportMetric(float64(instr.Microseconds())/1e3, "instrumented-warm-p50-ms")
		if budget := plain/20 + time.Millisecond; instr > plain+budget {
			b.Errorf("instrumented warm p50 %v exceeds uninstrumented %v by more than 5%%+1ms",
				instr, plain)
		}
	}
}

// warmLoad runs the overhead gate's open loop against a fresh server built
// with cfg: 100 Poisson arrivals at 50/s from seed 2, each a GET of one of
// two URLs, so every request after the first of each is a cache hit.  Each
// fires on schedule whatever the server's pace, while five /v1/progress
// subscriptions stay open for the whole run.  Every request must answer 200;
// warmLoad returns their latencies.
func warmLoad(b *testing.B, cfg Config) []time.Duration {
	const (
		arrivals = 100
		rate     = 50 // arrivals per second
		streams  = 5
	)
	ts := gateServer(cfg, nil)
	defer ts.Close()
	paths := []string{"/v1/experiments/fig4?seed=1&trials=5000", "/v1/experiments/table5"}
	// An idle connection for every request that can be in flight: the
	// default transport keeps two, and redialling the rest would land in the
	// measured latencies.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: arrivals}}
	defer client.CloseIdleConnections()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var open sync.WaitGroup
	for k := 0; k < streams; k++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/progress", nil)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		open.Add(1)
		go func() {
			defer open.Done()
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}

	rng := rand.New(rand.NewSource(2))
	lat := make([]time.Duration, arrivals)
	errs := make([]error, arrivals)
	var wg sync.WaitGroup
	start := time.Now()
	var due time.Duration
	for i := range lat {
		due += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		path := paths[rng.Intn(len(paths))]
		time.Sleep(due - time.Since(start))
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			resp, err := client.Get(ts.URL + path)
			if err != nil {
				errs[i] = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lat[i] = time.Since(t0)
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("%s: status %d", path, resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	cancel()
	open.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatalf("warm load (instrumented %v): %v", cfg.Obs != nil, err)
		}
	}
	return lat
}
