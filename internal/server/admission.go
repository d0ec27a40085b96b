package server

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"speedofdata/internal/obs"
)

// Config tunes the serving tier's admission control: how many experiment
// requests may execute at once, how many may wait, how long they may wait,
// how long an admitted run may take, and the per-client request rate.  The
// zero value of any field selects the documented default.  These are
// operator knobs (qsd serve flags), not client parameters — Validate rejects
// nonsensical settings at startup just as queryParams bounds client effort
// per request.
type Config struct {
	// MaxConcurrent bounds experiment requests executing concurrently
	// (admitted past the gate).  Requests beyond it queue.  0 selects
	// DefaultMaxConcurrent; the engine's worker pool bounds CPU below this.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot.  A request
	// arriving with the queue full is shed immediately with 429 and a
	// Retry-After hint.  0 selects DefaultMaxQueue.
	MaxQueue int
	// QueueTimeout is the longest a queued request waits for admission
	// before it is shed with 429.  0 selects DefaultQueueTimeout.
	QueueTimeout time.Duration
	// RequestTimeout is the deadline of an admitted experiment run.  A run
	// that exceeds it is cancelled and answered with 503.  0 selects
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// RatePerClient is the sustained per-client request rate (tokens per
	// second, keyed by remote address) enforced by a token bucket in front
	// of the admission gate.  0 disables rate limiting.
	RatePerClient float64
	// BurstPerClient is the token bucket capacity: how many requests a
	// client may issue back to back before the sustained rate applies.  0
	// with RatePerClient > 0 defaults to ceil(RatePerClient), at least 1.
	BurstPerClient int
	// Obs, when set, wires the server into an observability bundle: request
	// metrics and admission gauges are registered with Obs.Registry,
	// /v1/experiments/ requests are traced through Obs.Tracer (trace ID in
	// X-Trace-Id, full trace at /v1/trace/{id}), and the /metrics and
	// /v1/metrics endpoints are mounted.  nil serves without observability,
	// byte-identical to the pre-obs server.
	Obs *obs.Obs
	// AccessLog enables a structured (slog) access-log line per request on
	// Obs.Log, correlated by trace ID.  Ignored when Obs is nil.
	AccessLog bool
}

// Admission defaults, chosen so a default server sheds under abuse but never
// throttles the interactive workloads the test suite and examples run.
const (
	DefaultMaxQueue       = 64
	DefaultQueueTimeout   = 2 * time.Second
	DefaultRequestTimeout = 2 * time.Minute
)

// DefaultMaxConcurrent returns the default execution-slot count: twice
// GOMAXPROCS (requests block on the shared engine, so some oversubscription
// keeps the pool busy while a request encodes its response), at least 4.
func DefaultMaxConcurrent() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	return n
}

// Validate rejects operator configurations no server can run.  Zero values
// are legal (they select defaults); negative values and a positive rate with
// a negative burst are not.
func (c Config) Validate() error {
	if c.MaxConcurrent < 0 {
		return fmt.Errorf("max-concurrent must be non-negative (0 = default %d), got %d", DefaultMaxConcurrent(), c.MaxConcurrent)
	}
	if c.MaxQueue < 0 {
		return fmt.Errorf("max-queue must be non-negative (0 = default %d), got %d", DefaultMaxQueue, c.MaxQueue)
	}
	if c.QueueTimeout < 0 {
		return fmt.Errorf("queue-timeout must be non-negative (0 = default %v), got %v", DefaultQueueTimeout, c.QueueTimeout)
	}
	if c.RequestTimeout < 0 {
		return fmt.Errorf("request-timeout must be non-negative (0 = default %v), got %v", DefaultRequestTimeout, c.RequestTimeout)
	}
	if c.RatePerClient < 0 || math.IsNaN(c.RatePerClient) || math.IsInf(c.RatePerClient, 0) {
		return fmt.Errorf("rate-limit must be a non-negative finite rate (0 = disabled), got %v", c.RatePerClient)
	}
	if c.BurstPerClient < 0 {
		return fmt.Errorf("rate-burst must be non-negative (0 = default), got %d", c.BurstPerClient)
	}
	return nil
}

// withDefaults resolves every zero field to its default.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = DefaultMaxConcurrent()
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = DefaultQueueTimeout
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.RatePerClient > 0 && c.BurstPerClient == 0 {
		c.BurstPerClient = int(math.Ceil(c.RatePerClient))
		if c.BurstPerClient < 1 {
			c.BurstPerClient = 1
		}
	}
	return c
}

// shedError reports a request the admission gate refused, with the hint the
// handler turns into a Retry-After header.
type shedError struct {
	reason     string
	retryAfter time.Duration
}

func (e *shedError) Error() string { return e.reason }

// gate is the concurrency-limited admission queue in front of engine
// dispatch.  slots is a counting semaphore of execution slots; queue bounds
// the waiters.  Both are channels so the gauges (len) are exact and admit
// needs no lock on the hot path.
type gate struct {
	slots   chan struct{}
	queue   chan struct{}
	timeout time.Duration

	// admitted and shed are obs counters so the metrics registry can expose
	// the gate's own storage (single source of truth with /v1/healthz); the
	// gate works identically when no registry is attached.
	admitted *obs.Counter
	shed     *obs.Counter
}

func newGate(maxConcurrent, maxQueue int, timeout time.Duration) *gate {
	return &gate{
		slots:    make(chan struct{}, maxConcurrent),
		queue:    make(chan struct{}, maxQueue),
		timeout:  timeout,
		admitted: &obs.Counter{},
		shed:     &obs.Counter{},
	}
}

// admit blocks until an execution slot frees, the queue overflows, the wait
// times out, or ctx is cancelled.  On success it returns the release
// function the caller must invoke when the request finishes; on overflow or
// timeout it returns a *shedError (answer 429), and on cancellation the
// context's error (the client is gone — answer no one).
func (g *gate) admit(ctx context.Context) (func(), error) {
	// Fast path: a free slot, no queueing.
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return g.release, nil
	default:
	}
	// Queue, bounded: a full queue sheds immediately rather than building an
	// unbounded backlog whose every entry would time out anyway.
	select {
	case g.queue <- struct{}{}:
	default:
		g.shed.Add(1)
		return nil, &shedError{
			reason:     fmt.Sprintf("server saturated: %d requests executing and %d queued", cap(g.slots), cap(g.queue)),
			retryAfter: g.timeout,
		}
	}
	defer func() { <-g.queue }()
	timer := time.NewTimer(g.timeout)
	defer timer.Stop()
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return g.release, nil
	case <-timer.C:
		g.shed.Add(1)
		return nil, &shedError{
			reason:     fmt.Sprintf("server saturated: no execution slot freed within %v", g.timeout),
			retryAfter: g.timeout,
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (g *gate) release() { <-g.slots }

// inFlight and queueDepth are the live gauges /v1/healthz reports.
func (g *gate) inFlight() int   { return len(g.slots) }
func (g *gate) queueDepth() int { return len(g.queue) }

// rateLimiter is a per-client token bucket: each client (keyed by remote
// host) holds up to burst tokens, refilled at rate tokens per second; a
// request spends one.  now is injectable so tests drive the clock
// deterministically.
type rateLimiter struct {
	rate  float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	clients map[string]*bucket
	limited *obs.Counter
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxTrackedClients bounds the limiter's memory: past it, insertion sweeps
// clients whose buckets have fully refilled (they carry no throttling state).
const maxTrackedClients = 4096

func newRateLimiter(rate float64, burst int) *rateLimiter {
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		now:     time.Now,
		clients: make(map[string]*bucket),
		limited: &obs.Counter{},
	}
}

// allow spends one token of the client's bucket.  When the bucket is empty
// it reports false and the wait until the next token accrues.
func (l *rateLimiter) allow(client string) (time.Duration, bool) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.clients[client]
	if !ok {
		if len(l.clients) >= maxTrackedClients {
			l.sweep(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.clients[client] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+l.rate*now.Sub(b.last).Seconds())
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	l.limited.Inc()
	return time.Duration((1 - b.tokens) / l.rate * float64(time.Second)), false
}

// sweep drops clients whose buckets have refilled to full: they are
// indistinguishable from unseen clients.  Called with mu held.
func (l *rateLimiter) sweep(now time.Time) {
	for key, b := range l.clients {
		if b.tokens+l.rate*now.Sub(b.last).Seconds() >= l.burst {
			delete(l.clients, key)
		}
	}
}

func (l *rateLimiter) limitedCount() int64 {
	return l.limited.Value()
}

// clientKey extracts the rate-limiting key from a request: the remote host
// without the ephemeral port, so one client's connections share a bucket.
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 (a zero Retry-After invites an immediate retry).
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}
