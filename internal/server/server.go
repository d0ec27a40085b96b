// Package server exposes the experiment registry over HTTP as a JSON/CSV
// API, turning the one-shot qsd batch tool into a long-lived service.
//
// All requests run on one shared engine.Engine, so the fingerprint-keyed
// result cache and the worker pool are reused across requests: a repeated
// request with identical parameters is served from cache without
// recomputation, and identical requests that race are coalesced onto a
// single in-flight computation (singleflight).  Long sweeps report job
// completions on a server-sent-events progress stream.
//
// Endpoints (all GET):
//
//	/v1/experiments            list every experiment with its parameters
//	/v1/experiments/{id}       run one experiment (or "all"); parameters:
//	                           format (json, csv, text; default json) and
//	                           one per row of the core parameter table
//	                           (core.Params), named like the qsd flags and
//	                           held to the table's HTTP caps
//	/v1/progress               SSE stream of engine job completions
//	                           ("job" events) and refining partial
//	                           estimates of sequential-sampling runs
//	                           ("partial" events)
//	/v1/cache                  engine cache and coalescing statistics
//	/v1/healthz                liveness probe with admission-control gauges
//	                           (in-flight, queue depth, shed/admitted/
//	                           rate-limited totals, engine jobs, SSE
//	                           subscribers)
//
// Experiment runs pass an admission gate (see Config): at most MaxConcurrent
// execute at once, at most MaxQueue wait, and a saturated server sheds with
// 429 + Retry-After instead of building unbounded backlog.  An optional
// per-client token bucket (RatePerClient) throttles abusive clients before
// they reach the gate.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync/atomic"

	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/network"
	"speedofdata/internal/obs"
	"speedofdata/internal/report"
)

// Server is the HTTP handler of the experiment API.
type Server struct {
	exp      core.Experiments
	defaults core.RunParams
	cfg      Config
	mux      *http.ServeMux
	hub      *progressHub
	gate     *gate
	limiter  *rateLimiter // nil when rate limiting is disabled
	obs      *obs.Obs     // nil when observability is disabled
	draining atomic.Bool

	// runReport executes one experiment request; tests swap it for a stub so
	// saturation and deadline behavior are exercised without real workloads.
	runReport func(ctx context.Context, exp core.Experiments, p core.RunParams, ids []string) (report.Document, error)
}

// New builds a server with DefaultConfig admission settings.
func New(exp core.Experiments, defaults core.RunParams) *Server {
	return NewWithConfig(exp, defaults, DefaultConfig())
}

// NewWithConfig builds a server around the given experiment runner, whose
// Engine is shared by every request.  defaults supplies the parameter values
// used when a query string omits them (use core.DefaultRunParams for the
// paper's settings); cfg tunes admission control (zero fields select
// defaults).  The engine's Progress callback is claimed for the /v1/progress
// stream.
func NewWithConfig(exp core.Experiments, defaults core.RunParams, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		exp:       exp,
		defaults:  defaults,
		cfg:       cfg,
		mux:       http.NewServeMux(),
		hub:       newProgressHub(),
		gate:      newGate(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueTimeout),
		runReport: core.RunReport,
	}
	if cfg.RatePerClient > 0 {
		s.limiter = newRateLimiter(cfg.RatePerClient, cfg.BurstPerClient)
	}
	if exp.Engine != nil {
		exp.Engine.Progress = s.hub.broadcast
		exp.Engine.Partial = s.hub.broadcastPartial
	}
	s.mux.HandleFunc("GET /v1/experiments", s.handleList)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("GET /v1/progress", s.hub.handleSSE)
	s.mux.HandleFunc("GET /v1/cache", s.handleCache)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	if cfg.Obs != nil {
		s.instrument(cfg.Obs)
	}
	return s
}

// Shutdown moves the server into draining: the progress hub closes (every
// SSE stream ends cleanly, new subscriptions get 503) and new experiment
// requests are refused with 503 while admitted ones finish.  Call it before
// http.Server.Shutdown so idle SSE connections do not hold the drain open.
func (s *Server) Shutdown() {
	s.draining.Store(true)
	s.hub.close()
}

// ServeHTTP implements http.Handler.  With observability wired in, every
// request passes the observe middleware (tracing, request metrics, access
// log); without it the mux serves directly, as before.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.obs != nil {
		s.observe(w, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// listedExperiment is one entry of the /v1/experiments index.
type listedExperiment struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Aliases []string `json:"aliases,omitempty"`
	Params  []string `json:"params,omitempty"`
	Path    string   `json:"path"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	infos := core.ExperimentInfos()
	out := struct {
		Experiments []listedExperiment `json:"experiments"`
	}{Experiments: make([]listedExperiment, 0, len(infos))}
	for _, info := range infos {
		out.Experiments = append(out.Experiments, listedExperiment{
			ID:      info.ID,
			Title:   info.Title,
			Aliases: info.Aliases,
			Params:  info.Params,
			Path:    "/v1/experiments/" + info.ID,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// queryParams overlays the request's parsed query string on the server
// defaults, one query parameter per row of the core parameter table, and
// holds the result to the table's ranges and HTTP caps.  It returns the
// experiment runner (bits applied) and the run parameters.
func (s *Server) queryParams(q url.Values) (core.Experiments, core.RunParams, error) {
	exp, p := s.exp, s.defaults
	for _, prm := range core.Params {
		for _, name := range [...]string{prm.Name, prm.Alias} {
			if v := q.Get(name); name != "" && v != "" {
				if err := prm.Set(&exp, &p, v); err != nil {
					return exp, p, fmt.Errorf("invalid %s: %v", name, err)
				}
			}
		}
	}
	return exp, p, core.ValidateParams(&exp, &p, true)
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	// Rate limiting runs before any parsing: a throttled client should pay
	// nothing beyond the bucket lookup.
	if s.limiter != nil {
		if wait, ok := s.limiter.allow(clientKey(r)); !ok {
			w.Header().Set("Retry-After", retryAfterSeconds(wait))
			writeError(w, http.StatusTooManyRequests, "rate limit exceeded for client %s", clientKey(r))
			return
		}
	}
	id := r.PathValue("id")
	ids := []string{id}
	if id == "all" {
		ids = core.AllExperimentOrder
	} else if _, ok := core.CanonicalExperimentID(id); !ok {
		writeError(w, http.StatusNotFound, "unknown experiment %q", id)
		return
	}
	q := r.URL.Query()
	f := report.FormatJSON
	if v := q.Get("format"); v != "" {
		parsed, err := report.ParseFormat(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		f = parsed
	}
	exp, p, err := s.queryParams(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	release, err := s.gate.admit(r.Context())
	if err != nil {
		var shed *shedError
		if errors.As(err, &shed) {
			w.Header().Set("Retry-After", retryAfterSeconds(shed.retryAfter))
			writeError(w, http.StatusTooManyRequests, "%v", shed)
		}
		// Otherwise the client gave up while queued; there is no one to answer.
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	doc, err := s.runReport(ctx, exp, p, ids)
	if err != nil {
		if r.Context().Err() != nil {
			// The client went away; there is no one to answer.
			return
		}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The admitted run outlived its deadline: the server cancelled it
			// to protect the pool, not because the request was malformed.
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.QueueTimeout))
			writeError(w, http.StatusServiceUnavailable,
				"request exceeded the server's %v execution deadline", s.cfg.RequestTimeout)
			return
		}
		var reqErr *core.RequestError
		if errors.Is(err, network.ErrPartitioned) || errors.As(err, &reqErr) {
			// The requested fault plan disconnects the mesh, or the
			// experiment cannot run with the requested settings: a property
			// of the request, not a server failure.
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	body, err := doc.Append(nil, f)
	if err != nil {
		// The document has no encoding in this format (JSON has no NaN).
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", f.ContentType())
	w.Write(body) // a client that has gone needs no answer
}

// cacheStats is the /v1/cache response body.  hits/misses cover the memory
// tier; store_hits/store_misses count the memory misses that were resolved
// (or not) by the persistent store backend, when one is attached.
type cacheStats struct {
	Hits        int `json:"hits"`
	Misses      int `json:"misses"`
	Coalesced   int `json:"coalesced"`
	Entries     int `json:"entries"`
	StoreHits   int `json:"store_hits"`
	StoreMisses int `json:"store_misses"`
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	tiers := s.exp.Engine.Tiers()
	writeJSON(w, http.StatusOK, cacheStats{
		Hits:        tiers.MemoryHits,
		Misses:      tiers.MemoryMisses,
		Coalesced:   s.exp.Engine.Coalesced(),
		Entries:     tiers.MemoryEntries,
		StoreHits:   tiers.StoreHits,
		StoreMisses: tiers.StoreMisses,
	})
}

// healthStatus is the /v1/healthz response body: liveness plus the
// admission-control gauges, which TestAdmissionSaturationSheds and
// TestHealthzAgreesWithMetrics assert on.
type healthStatus struct {
	// Status is "ok" while serving and "draining" after Shutdown.
	Status string `json:"status"`
	// InFlight and QueueDepth are live admission-gate gauges; QueueCapacity
	// and MaxConcurrent are their configured bounds.
	InFlight      int `json:"in_flight"`
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	MaxConcurrent int `json:"max_concurrent"`
	// Admitted and Shed count experiment requests the gate let through or
	// refused (429) since startup; RateLimited counts requests the per-client
	// token bucket refused before the gate.
	Admitted    int64 `json:"admitted"`
	Shed        int64 `json:"shed"`
	RateLimited int64 `json:"rate_limited"`
	// EngineJobsInFlight is the engine-level gauge of job Run functions
	// executing now (cache hits and coalesced followers excluded).
	EngineJobsInFlight int `json:"engine_jobs_in_flight"`
	// SSESubscribers is the live /v1/progress subscriber count.
	SSESubscribers int `json:"sse_subscribers"`
	// CacheMemoryHitRate is hits/(hits+misses) over memory-tier lookups
	// (0 before any lookup); CacheMemoryEntries the tier's current size.
	CacheMemoryHitRate float64 `json:"cache_memory_hit_rate"`
	CacheMemoryEntries int     `json:"cache_memory_entries"`
	// StoreHitRate is the fraction of memory misses the persistent store
	// resolved; Store carries the store's own gauges.  Both are present only
	// when the server was started with a store backend (-store).
	StoreHitRate float64      `json:"store_hit_rate,omitempty"`
	Store        *storeHealth `json:"store,omitempty"`
}

// storeHealth is the persistent result store's corner of /v1/healthz.
type storeHealth struct {
	Entries   int   `json:"entries"`
	LiveBytes int64 `json:"live_bytes"`
	DeadBytes int64 `json:"dead_bytes"`
	FileBytes int64 `json:"file_bytes"`
	Puts      int64 `json:"puts"`
	Skipped   int64 `json:"skipped"`
	Evicted   int64 `json:"evicted"`
	Stale     int64 `json:"stale"`
	ReadOnly  bool  `json:"read_only"`
	// Compaction history: total passes, and the bytes reclaimed / live
	// entries kept by the most recent one.
	Compactions                  int64 `json:"compactions"`
	LastCompactionReclaimedBytes int64 `json:"last_compaction_reclaimed_bytes"`
	LastCompactionLiveEntries    int   `json:"last_compaction_live_entries"`
}

func rate(hits, misses int) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := healthStatus{
		Status:             "ok",
		InFlight:           s.gate.inFlight(),
		QueueDepth:         s.gate.queueDepth(),
		QueueCapacity:      s.cfg.MaxQueue,
		MaxConcurrent:      s.cfg.MaxConcurrent,
		Admitted:           s.gate.admitted.Value(),
		Shed:               s.gate.shed.Value(),
		EngineJobsInFlight: s.exp.Engine.InFlight(),
		SSESubscribers:     s.hub.subscribers(),
	}
	if s.limiter != nil {
		st.RateLimited = s.limiter.limitedCount()
	}
	tiers := s.exp.Engine.Tiers()
	st.CacheMemoryHitRate = rate(tiers.MemoryHits, tiers.MemoryMisses)
	st.CacheMemoryEntries = tiers.MemoryEntries
	if backend := s.exp.Engine.Backend; backend != nil {
		st.StoreHitRate = rate(tiers.StoreHits, tiers.StoreMisses)
		if sb, ok := backend.(engine.StatBackend); ok {
			bs := sb.Stats()
			st.Store = &storeHealth{
				Entries:                      bs.Entries,
				LiveBytes:                    bs.LiveBytes,
				DeadBytes:                    bs.DeadBytes,
				FileBytes:                    bs.FileBytes,
				Puts:                         bs.Puts,
				Skipped:                      bs.Skipped,
				Evicted:                      bs.Evicted,
				Stale:                        bs.Stale,
				ReadOnly:                     bs.ReadOnly,
				Compactions:                  bs.Compactions,
				LastCompactionReclaimedBytes: bs.LastCompactionReclaimedBytes,
				LastCompactionLiveEntries:    bs.LastCompactionLiveEntries,
			}
		}
	}
	if s.draining.Load() {
		st.Status = "draining"
	}
	writeJSON(w, http.StatusOK, st)
}
