// Package obs is the zero-dependency observability core of the serving
// stack: a typed metrics registry with atomic, allocation-free hot-path
// updates, an HDR-style latency histogram, and a bounded request tracer
// whose spans propagate through context from the HTTP middleware down to
// individual engine jobs.
//
// The paper's central methodology is accounting for where time goes —
// decomposing makespan into compute, factory-starved and network-blocked
// components.  This package applies the same discipline to the serving
// system itself: every layer (engine, store, server, sim kernel, noise
// samplers, Go runtime) registers its counters and gauges here, one
// registry serves both the Prometheus text exposition format (GET /metrics)
// and a structured JSON snapshot (GET /v1/metrics), and a per-request trace
// answers where a slow request spent its time (GET /v1/trace/{id}).
//
// Naming convention: qsd_<layer>_<noun>_<unit>, with the Prometheus
// suffixes _total for counters and base units of seconds and bytes.
// Metrics that mirror a layer's own counters are registered as func-backed
// series reading the layer's storage, so /metrics, /v1/metrics and
// /v1/healthz can never disagree: there is one source of truth per number.
//
// Overhead budget: Counter.Add, Gauge.Set and Histogram.Record are single
// atomic operations (0 allocs, guarded by tests); per-job tracing costs one
// span allocation and two time.Now calls, and is skipped entirely when the
// request context carries no trace.  Scrape-time work (sorting families,
// sampling runtime gauges) happens on the scraping request, never on the
// serving path.
package obs
