// Package engine is the shared parallel experiment runner behind every sweep,
// grid and Monte Carlo evaluation in the reproduction.  An experiment layer
// (core, microarch, noise, schedule) describes its work as a slice of Jobs —
// pure functions keyed by a stable fingerprint of their inputs — and Run
// executes them on a worker pool, returning results in job order.
//
// Three properties make the engine safe to drop under existing experiment
// code:
//
//   - Determinism: each job draws randomness only from a *rand.Rand seeded by
//     a stable hash of its job key, so results are byte-identical
//     whether the batch runs on one worker or many, and identical across
//     processes and platforms.
//   - Order preservation: Run returns results indexed exactly like the input
//     job slice, so callers keep their presentation order for free.
//   - Memoisation: the engine keeps one table entry per job key, so a key
//     is computed once while its result is kept.  The first job with a key
//     leads its entry: it alone consults the CacheBackend tier that
//     survives the process (internal/store), when one is attached, or
//     computes.  A job whose key is in flight (e.g. two HTTP requests
//     racing on the same sweep) waits for the leader's result, and one
//     whose key is kept (e.g. the same benchmark characterisation feeding
//     two figures) returns it at once.  Kept entries form an LRU tier
//     bounded by CacheLimit entries.  A job must therefore never schedule
//     a nested batch containing its own key, which would wait on itself.
package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"speedofdata/internal/obs"
)

// Job is one unit of experiment work.
type Job[R any] struct {
	// Key is a stable fingerprint of everything the job's result depends on
	// (use Fingerprint).  It seeds the job's RNG stream and names the job's
	// entry in the engine's memo table: jobs with equal keys share one
	// result, so they must share a result type.
	Key string
	// Run computes the result.  rng is the job's private deterministic
	// stream; jobs must not use any other randomness source.  Long-running
	// jobs should poll ctx and return ctx.Err() when cancelled.
	Run func(ctx context.Context, rng *rand.Rand) (R, error)
}

// Engine executes job batches on a bounded worker pool and memoises their
// results in one table keyed by job key.  Construct it with New; a nil
// *Engine runs sequentially and memoises nothing.  An Engine is safe for
// concurrent use, including nested Run calls from inside jobs: the worker
// bound applies to the whole engine, not per batch, so fanning out chunks
// from inside a job never multiplies concurrency beyond Workers.
type Engine struct {
	// Workers bounds the total number of jobs executing concurrently across
	// every (possibly nested) Run on this engine; values <= 0 mean
	// GOMAXPROCS.
	Workers int
	// Progress, when set, is called after each job completes with the number
	// of finished jobs in the current batch, the batch size, the job's key,
	// and the trace ID of the request the batch runs under ("" when the batch
	// context carries no trace).  Calls are serialised and done counts are
	// monotonic per batch.
	Progress func(done, total int, key, traceID string)
	// CacheLimit bounds the number of kept results; 0 means unlimited.
	// When the memory tier is full, the least-recently-used entry is evicted
	// per insertion, so it keeps the hottest keys resident (in front of the
	// Backend tier, when one is attached) while capping a long-lived
	// server's memory growth; the one-shot CLI stays unlimited.  The memory
	// tier is bounded by entry count; a disk Backend bounds itself by bytes
	// (see internal/store).
	CacheLimit int
	// Backend is an optional second cache tier (typically the disk-backed
	// internal/store).  The leader of a key missing from the memory tier
	// consults it before computing and keeps a hit in the memory tier;
	// computed results are written through.  Evicting a memory entry loses
	// nothing: the entry was already written through when it was computed.
	// Set it before the first Run and leave it in place; a nil Backend keeps
	// the engine memory-only.
	Backend CacheBackend
	// Partial, when set, receives intermediate results of long-running
	// experiments via PublishPartial (e.g. the refining estimates of a
	// sequential Monte Carlo run).  Unlike Progress it is not tied to job
	// batches: an experiment publishes under its own key with its own
	// monotonically increasing sequence number.  Calls are serialised.
	Partial func(key string, seq int, value any)

	mu sync.Mutex
	// memo holds an entry per key that is in flight or kept.  lru is the
	// recency ring of the kept ones: lru.next is the most recently used,
	// lru.prev the eviction candidate; kept counts them.
	memo      map[string]*entry
	lru       entry
	kept      int
	hits      int
	misses    int
	storeHits int
	storeMiss int
	coalesced int
	// partialMu serialises PublishPartial calls, separately from mu so
	// publishing never contends with the job hot path.
	partialMu sync.Mutex
	// running counts jobs whose Run function is executing right now, across
	// every concurrent batch.  Cache hits and coalesced followers are not
	// counted: the gauge reflects computation actually in progress, which is
	// what the serving tier's health endpoint reports.
	running atomic.Int64
	// extras grants slots for helper goroutines beyond the one goroutine
	// each Run call already runs jobs on.  Lazily sized to Workers-1.
	extras chan struct{}

	// obsReg and jobsRun are set by Instrument; jobHists caches the per-kind
	// latency histogram so the job path doesn't rebuild a label set per job.
	obsReg   *obs.Registry
	jobsRun  *obs.Counter
	jobHists sync.Map // kind string -> *obs.Histogram
}

// New returns an engine with the given worker bound and an empty memo table.
func New(workers int) *Engine {
	e := &Engine{Workers: workers, memo: make(map[string]*entry)}
	e.lru.next, e.lru.prev = &e.lru, &e.lru
	return e
}

// entry is one key's slot in the memo table.  Its leader sets val and err,
// then closes done; until then the entry is in flight.  prev and next link
// a kept entry into the recency ring and are nil while it is in flight.
type entry struct {
	key        string
	done       chan struct{}
	val        any
	err        error
	prev, next *entry
}

// lruUnlink removes ent from the recency ring.
func (e *Engine) lruUnlink(ent *entry) {
	ent.prev.next = ent.next
	ent.next.prev = ent.prev
}

// lruFront moves (or inserts) ent to the most-recently-used position.
func (e *Engine) lruFront(ent *entry) {
	ent.prev = &e.lru
	ent.next = e.lru.next
	ent.prev.next = ent
	ent.next.prev = ent
}

// Sequential returns a single-worker caching engine: the reference executor
// that parallel runs must match byte for byte.
func Sequential() *Engine { return New(1) }

func (e *Engine) workerCount() int {
	if e == nil {
		return 1
	}
	if e.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.Workers
}

// TierStats describes both cache tiers' lookup effectiveness.
type TierStats struct {
	// MemoryHits and MemoryMisses count memory-tier lookups that found a
	// kept key / led an absent one; a job that joins a key in flight counts
	// as neither (see Coalesced).  MemoryEntries is the tier's current size
	// (bounded by CacheLimit).
	MemoryHits, MemoryMisses, MemoryEntries int
	// StoreHits and StoreMisses count the memory misses that went on to the
	// Backend tier and found / did not find the key there.  Both stay zero
	// without a Backend.
	StoreHits, StoreMisses int
}

// Tiers reports the two-tier cache counters.  A memory miss that the
// Backend serves counts as both a MemoryMiss and a StoreHit: the hit-rate of
// each tier is computed over the lookups that reached it.
func (e *Engine) Tiers() TierStats {
	if e == nil {
		return TierStats{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return TierStats{
		MemoryHits:    e.hits,
		MemoryMisses:  e.misses,
		MemoryEntries: e.kept,
		StoreHits:     e.storeHits,
		StoreMisses:   e.storeMiss,
	}
}

// InFlight reports how many jobs are executing on the engine at this moment,
// across every concurrent Run batch.  It is the engine-side load signal of
// the HTTP serving tier: /v1/healthz exposes it so an external harness can
// assert the engine has drained after a load burst.
func (e *Engine) InFlight() int {
	if e == nil {
		return 0
	}
	return int(e.running.Load())
}

// Coalesced reports how many jobs were served by waiting on an identical
// in-flight computation instead of recomputing.  Such a job counts here
// only, not as a memory or store lookup.
func (e *Engine) Coalesced() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.coalesced
}

// Instrument registers the engine's metrics with reg.  Cache, coalescing
// and in-flight series are func-backed readers of the engine's own counters
// — the engine stays the single source of truth, so /metrics can never
// disagree with Tiers() or /v1/healthz — while the computed-jobs counter
// and per-kind latency histograms are owned here because no existing
// counter covers them.  Call once, before serving.
func (e *Engine) Instrument(reg *obs.Registry) {
	if e == nil || reg == nil {
		return
	}
	e.obsReg = reg
	e.jobsRun = reg.Counter("qsd_engine_jobs_total",
		"Jobs computed by the engine (cache hits and coalesced followers excluded).", nil)
	reg.CounterFunc("qsd_engine_cache_hits_total",
		"Memory-tier cache hits.", nil,
		func() float64 { return float64(e.Tiers().MemoryHits) })
	reg.CounterFunc("qsd_engine_cache_misses_total",
		"Memory-tier cache misses.", nil,
		func() float64 { return float64(e.Tiers().MemoryMisses) })
	reg.CounterFunc("qsd_engine_store_hits_total",
		"Memory misses served by the store tier.", nil,
		func() float64 { return float64(e.Tiers().StoreHits) })
	reg.CounterFunc("qsd_engine_store_misses_total",
		"Memory misses the store tier could not serve.", nil,
		func() float64 { return float64(e.Tiers().StoreMisses) })
	reg.CounterFunc("qsd_engine_coalesced_total",
		"Jobs served by waiting on an identical in-flight computation.", nil,
		func() float64 { return float64(e.Coalesced()) })
	reg.GaugeFunc("qsd_engine_jobs_in_flight",
		"Jobs whose Run function is executing right now.", nil,
		func() float64 { return float64(e.InFlight()) })
	reg.GaugeFunc("qsd_engine_cache_memory_entries",
		"Entries resident in the memory cache tier.", nil,
		func() float64 { return float64(e.Tiers().MemoryEntries) })
}

// jobHist returns the latency histogram for a job kind, or nil when the
// engine is uninstrumented.
func (e *Engine) jobHist(kind string) *obs.Histogram {
	if e == nil || e.obsReg == nil {
		return nil
	}
	if h, ok := e.jobHists.Load(kind); ok {
		return h.(*obs.Histogram)
	}
	h := e.obsReg.Histogram("qsd_engine_job_seconds",
		"Compute latency of engine jobs by kind.", obs.Labels{"kind": kind})
	e.jobHists.Store(kind, h)
	return h
}

// kindOf maps a job key to its metric/span label: the experiment id for
// top-level "qsd|<id>|..." keys, the stage name (first segment) for nested
// keys like "circuits.generate|QCLA|32".  The label space is bounded by the
// experiment registry and stage names, as the registry requires.
func kindOf(key string) string {
	first, rest, ok := strings.Cut(key, "|")
	if !ok {
		return first
	}
	if first == "qsd" {
		second, _, _ := strings.Cut(rest, "|")
		return second
	}
	return first
}

// lookup resolves key in the memo table and reports how: "cache-memory"
// for a kept entry, which moves to the LRU front; "coalesced" for an entry
// in flight, which the caller must wait on; "" when the key was absent and
// the caller leads the entry just registered for it, which it alone fills
// and settles.  A nil engine keeps no table, so its caller leads an
// unregistered entry.
func (e *Engine) lookup(key string) (*entry, string) {
	if e == nil {
		return &entry{key: key}, ""
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.memo[key]
	switch {
	case !ok:
		e.misses++
		ent = &entry{key: key, done: make(chan struct{})}
		e.memo[key] = ent
		return ent, ""
	case ent.next == nil:
		e.coalesced++
		return ent, "coalesced"
	}
	e.hits++
	e.lruUnlink(ent)
	e.lruFront(ent)
	return ent, "cache-memory"
}

// fill resolves the entry its caller leads and reports the outcome: the
// Backend's record when it holds the key ("cache-store"), else the job's
// own result ("computed"), written through to the Backend on success.  The
// entry is settled on every path, a panic in job.Run included, so no
// follower waits on it forever.
func fill[R any](ctx context.Context, e *Engine, ent *entry, job Job[R], kind string) (outcome string) {
	defer func() {
		if outcome == "" {
			ent.err = fmt.Errorf("engine: job %q panicked", job.Key)
		}
		e.settle(ent, outcome)
	}()
	if e != nil && e.Backend != nil {
		// A record of another type than R was written by a build whose
		// stage returned another type under this key: it is a miss, and the
		// computed result replaces it.
		if v, ok := e.Backend.Get(job.Key); ok {
			if _, isR := v.(R); isR {
				ent.val = v
				return "cache-store"
			}
		}
	}
	start := time.Now()
	e.jobStart()
	defer e.jobEnd()
	v, err := job.Run(ctx, rand.New(&lazySource{key: job.Key}))
	if err == nil && e != nil && e.Backend != nil {
		e.Backend.Put(job.Key, v)
	}
	ent.val, ent.err = v, err
	if e != nil {
		e.jobsRun.Inc()
		if h := e.jobHist(kind); h != nil {
			h.Record(time.Since(start))
		}
	}
	return "computed"
}

// settle publishes a leader's outcome: it counts the Backend lookup, keeps
// a successful entry at the LRU front, evicting from the back past
// CacheLimit, or drops a failed one so a later job retries the key, and
// then releases the followers.
func (e *Engine) settle(ent *entry, outcome string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	if e.Backend != nil {
		if outcome == "cache-store" {
			e.storeHits++
		} else {
			e.storeMiss++
		}
	}
	if ent.err != nil {
		delete(e.memo, ent.key)
	} else {
		for e.CacheLimit > 0 && e.kept >= e.CacheLimit {
			oldest := e.lru.prev
			e.lruUnlink(oldest)
			delete(e.memo, oldest.key)
			e.kept--
		}
		e.lruFront(ent)
		e.kept++
	}
	e.mu.Unlock()
	close(ent.done)
}

// SeedFor derives the RNG seed of a job from its key via FNV-1a, the
// "stable hash of the job key" that makes parallel batches reproduce
// sequential ones exactly.  The "0|" prefix is part of the hashed input:
// changing it would change every job's stream, and the goldens with it.
func SeedFor(key string) int64 {
	h := fnv.New64a()
	h.Write([]byte("0|"))
	h.Write([]byte(key))
	return int64(h.Sum64())
}

// lazySource is math/rand's default Source, seeded with SeedFor(key) on its
// first draw.  Hashing the key and seeding the source, which fills a
// 607-word state vector, cost more than most jobs, and only the Monte Carlo
// chunks ever draw; so a job that never draws never pays for its stream,
// and one that does sees exactly the values rand.NewSource(SeedFor(key))
// would give.  Seed starts a stream from the seed it is given.
type lazySource struct {
	key string
	src rand.Source64
}

func (s *lazySource) source() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(SeedFor(s.key)).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64    { return s.source().Int63() }
func (s *lazySource) Uint64() uint64  { return s.source().Uint64() }
func (s *lazySource) Seed(seed int64) { s.src = rand.NewSource(seed).(rand.Source64) }

// Fingerprint joins the %v renderings of its arguments with '|' into a job
// key.  Callers must include every input the job's result depends on.
//
// Strings, ints, floats, bools and Keyer/Stringer values are appended
// through typed fast paths (no reflection); everything else goes through
// %v.  Both produce identical bytes, so keys — and the RNG streams seeded
// from them — are unchanged from the reflection-based implementation.
func Fingerprint(parts ...any) string {
	b := make([]byte, 0, 96)
	for i, p := range parts {
		if i > 0 {
			b = append(b, '|')
		}
		b = appendPart(b, p)
	}
	return string(b)
}

// Run executes the batch on e's worker pool and returns the results in job
// order.  A nil engine runs sequentially.  The first job error (or context
// cancellation) cancels the remaining jobs and is returned; results computed
// before the failure are discarded.
//
// The calling goroutine itself runs jobs, and helper goroutines are added
// only while the engine-wide worker budget has spare slots.  A nested Run
// from inside a job therefore executes on the job's own goroutine (plus any
// spare slots) instead of stacking a fresh pool on top of the outer one.
func Run[R any](ctx context.Context, e *Engine, jobs []Job[R]) ([]R, error) {
	out := make([]R, len(jobs))
	if len(jobs) == 0 {
		return out, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		stateMu  sync.Mutex
		firstErr error
		done     int
		next     int
	)
	fail := func(err error) {
		stateMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		stateMu.Unlock()
		cancel()
	}
	// takeJob hands out job indices in order; finish keeps the progress
	// callback serialised and its done count monotonic.
	takeJob := func() (int, bool) {
		stateMu.Lock()
		defer stateMu.Unlock()
		if next >= len(jobs) {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	// Tracing costs one context lookup per batch when off.  When the batch
	// context carries a span (the HTTP middleware put one there, or an outer
	// job's ctx did — core experiments re-expose the job ctx to nested
	// batches), each job gets a child span recording its cache-tier outcome.
	parentSpan := obs.SpanFromContext(ctx)
	traceID := parentSpan.TraceID()
	finish := func(key string) {
		stateMu.Lock()
		done++
		if progress := e.progressFn(); progress != nil {
			progress(done, len(jobs), key, traceID)
		}
		stateMu.Unlock()
	}
	workerLoop := func() {
		for ctx.Err() == nil {
			i, ok := takeJob()
			if !ok {
				return
			}
			job := jobs[i]
			kind := kindOf(job.Key)
			span := parentSpan.Child(kind)
			ent, outcome := e.lookup(job.Key)
			switch outcome {
			case "":
				jobCtx := ctx
				if span != nil {
					// Nested batches scheduled by this job parent under its span.
					jobCtx = obs.ContextWithSpan(ctx, span)
				}
				outcome = fill(jobCtx, e, ent, job, kind)
			case "coalesced":
				// An identical job is already computing somewhere on this
				// engine (possibly for another Run batch, e.g. a concurrent
				// HTTP request): wait for its result instead of recomputing.
				select {
				case <-ctx.Done():
					return
				case <-ent.done:
				}
			}
			if ent.err != nil {
				span.Fail(ent.err)
				fail(ent.err)
				return
			}
			// Only a nil result of an interface type R fails this assertion,
			// and R's zero value is that nil.
			out[i], _ = ent.val.(R)
			span.EndWith(outcome)
			finish(job.Key)
		}
	}

	// Spawn helpers only while the engine-wide budget has spare slots; the
	// caller always participates as one worker.
	for spawned := 1; spawned < len(jobs); spawned++ {
		if !e.acquireExtra() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer e.releaseExtra()
			workerLoop()
		}()
	}
	workerLoop()
	wg.Wait()

	if err := ctx.Err(); err != nil {
		fail(err)
	}
	stateMu.Lock()
	err := firstErr
	stateMu.Unlock()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// acquireExtra tries to claim one engine-wide helper slot without blocking.
func (e *Engine) acquireExtra() bool {
	if e == nil {
		return false
	}
	e.mu.Lock()
	if e.extras == nil {
		n := e.workerCount() - 1
		if n < 0 {
			n = 0
		}
		e.extras = make(chan struct{}, n)
	}
	extras := e.extras
	e.mu.Unlock()
	select {
	case extras <- struct{}{}:
		return true
	default:
		return false
	}
}

func (e *Engine) releaseExtra() {
	e.mu.Lock()
	extras := e.extras
	e.mu.Unlock()
	<-extras
}

// jobStart and jobEnd maintain the in-flight job gauge around Run calls;
// both are safe on a nil engine.
func (e *Engine) jobStart() {
	if e != nil {
		e.running.Add(1)
	}
}

func (e *Engine) jobEnd() {
	if e != nil {
		e.running.Add(-1)
	}
}

func (e *Engine) progressFn() func(done, total int, key, traceID string) {
	if e == nil {
		return nil
	}
	return e.Progress
}

// PublishPartial forwards an intermediate experiment result to the Partial
// callback, if one is installed.  It is safe on a nil engine (no-op) and
// serialises concurrent publishers.
func (e *Engine) PublishPartial(key string, seq int, value any) {
	if e == nil {
		return
	}
	e.partialMu.Lock()
	defer e.partialMu.Unlock()
	if e.Partial != nil {
		e.Partial(key, seq, value)
	}
}
