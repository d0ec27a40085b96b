package server

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"
	"time"

	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/loadgen"
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

// BenchmarkInstrumentationOverheadGate drives the same cache-warm open-loop
// mix against a plain server and one carrying the observability layer
// (metrics registry and request tracing; the access log stays off).  A
// cache-warm request is almost pure per-request overhead, so the
// instrumented p50 must stay within 5% of the plain p50, plus 1 ms for timer
// and scheduling noise.
func BenchmarkInstrumentationOverheadGate(b *testing.B) {
	warmMix := func(cfg Config) loadgen.Result {
		ts := gateServer(cfg, nil)
		defer ts.Close()
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:  ts.URL,
			Rate:     50,
			Duration: 2 * time.Second,
			Seed:     2,
			Mix: loadgen.Mix{
				// One URL per endpoint: everything after the first request
				// is a cache hit.
				Endpoints: []loadgen.Endpoint{
					{ID: "fig4", Weight: 1, Params: func(*rand.Rand) url.Values {
						return url.Values{"seed": {"1"}, "trials": {"5000"}}
					}},
					{ID: "table5", Weight: 1},
				},
				SSE: 0.05,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Errors > 0 {
			b.Fatalf("warm mix (instrumented %v) saw errors: %+v", cfg.Obs != nil, res)
		}
		return res
	}
	for i := 0; i < b.N; i++ {
		plain, instr := warmMix(Config{}), warmMix(Config{Obs: obs.New()})
		b.ReportMetric(float64(instr.P50.Microseconds())/1e3, "instrumented-warm-p50-ms")
		if budget := plain.P50/20 + time.Millisecond; instr.P50 > plain.P50+budget {
			b.Errorf("instrumented warm p50 %v exceeds uninstrumented %v by more than 5%%+1ms",
				instr.P50, plain.P50)
		}
	}
}
