package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpansPerTrace bounds one trace's memory: a sweep request fanning out
// thousands of jobs keeps its first spans and counts the rest as dropped,
// instead of retaining an unbounded span list per request.
const maxSpansPerTrace = 512

// DefaultTraceCapacity is the finished-trace ring size of NewTracer(0).
const DefaultTraceCapacity = 256

// Span is one timed step of a trace: the request itself (the root), an
// experiment job, or a nested batch job.  Spans form a tree through Parent
// IDs.  A span is written by the goroutine executing its step and read only
// after the trace finishes, so it needs no lock of its own.
type Span struct {
	// ID is the span's 1-based creation index within its trace; Parent is
	// the creating span's ID (0 only for the root).
	ID     int64
	Parent int64
	// Name identifies the step: the request line for the root, the job kind
	// (experiment id or stage name) for engine jobs.
	Name  string
	Start time.Time
	// End is the zero time while the span is open (e.g. a job abandoned by
	// cancellation).
	End time.Time
	// Outcome states how the step completed: "computed", "cache-memory",
	// "cache-store", "coalesced" for engine jobs (the cache-tier outcome or
	// coalesced-follower marker), "error", or "" for the root.
	Outcome string
	// Err carries the error text when Outcome is "error".
	Err string

	tr *Trace
}

// Child opens a sub-span.  It is nil-safe — a nil receiver (no active
// trace, or a span dropped over the per-trace bound) returns nil, and every
// Span method accepts that nil — so callers instrument unconditionally.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	tr := s.tr
	tr.mu.Lock()
	if len(tr.spans) >= maxSpansPerTrace {
		tr.dropped++
		tr.mu.Unlock()
		return nil
	}
	c := &Span{ID: int64(len(tr.spans)) + 1, Parent: s.ID, Name: name, Start: time.Now(), tr: tr}
	tr.spans = append(tr.spans, c)
	tr.mu.Unlock()
	return c
}

// EndWith closes the span with an outcome.
func (s *Span) EndWith(outcome string) {
	if s == nil {
		return
	}
	s.End = time.Now()
	s.Outcome = outcome
}

// Fail closes the span recording the step's error.
func (s *Span) Fail(err error) {
	if s == nil {
		return
	}
	s.End = time.Now()
	s.Outcome = "error"
	if err != nil {
		s.Err = err.Error()
	}
}

// Duration is End-Start, or 0 while the span is open.
func (s *Span) Duration() time.Duration {
	if s == nil || s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// TraceID names the trace the span belongs to ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// Trace is one request's span tree.  It is mutated only between
// Tracer.Start and Tracer.Finish (by the request's own goroutines, through
// Span.Child under the trace lock) and immutable afterwards, which is when
// Tracer.Get starts returning it.
type Trace struct {
	id    string
	name  string
	start time.Time
	end   time.Time

	mu      sync.Mutex
	spans   []*Span
	dropped int64
}

// ID is the trace identifier, returned to clients in X-Trace-Id.
func (t *Trace) ID() string { return t.id }

// Name is the root span's name (the request line).
func (t *Trace) Name() string { return t.name }

// Root returns the root span, the parent for request-level children.
func (t *Trace) Root() *Span { return t.spans[0] }

// Start and End bound the trace; End is zero until the trace finishes.
func (t *Trace) Start() time.Time { return t.start }
func (t *Trace) End() time.Time   { return t.end }

// Spans returns the recorded spans in creation order (root first).  Call it
// only on finished traces (as returned by Tracer.Get).
func (t *Trace) Spans() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}

// Dropped counts spans discarded over the per-trace bound.
func (t *Trace) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Tracer creates traces and retains the most recent finished ones in a
// bounded ring for /v1/trace/{id} queries.
type Tracer struct {
	capacity int

	// slowSpan and log configure slow-span logging: when a trace finishes,
	// every span at least slowSpan long is logged (with its trace ID) so
	// slow steps surface without anyone polling the trace endpoint.  Both
	// are set once before serving.
	slowSpan time.Duration
	log      *slog.Logger

	mu   sync.Mutex
	byID map[string]*Trace
	ring []*Trace
	pos  int
}

// NewTracer returns a tracer retaining up to capacity finished traces
// (<= 0 selects DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{
		capacity: capacity,
		byID:     make(map[string]*Trace, capacity),
		ring:     make([]*Trace, 0, capacity),
	}
}

// SetSlowSpan enables slow-span logging: spans of finished traces lasting
// at least threshold are logged to log.  Call before serving.
func (t *Tracer) SetSlowSpan(threshold time.Duration, log *slog.Logger) {
	t.slowSpan = threshold
	t.log = log
}

// traceIDCounter de-duplicates fallback IDs if the system randomness source
// ever fails; real IDs are 8 random bytes in hex.
var traceIDCounter atomic.Int64

func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := traceIDCounter.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// Start opens a new trace whose root span carries name.  The trace is not
// queryable until Finish.
func (t *Tracer) Start(name string) *Trace {
	tr := &Trace{id: newTraceID(), name: name, start: time.Now()}
	tr.spans = append(tr.spans, &Span{ID: 1, Name: name, Start: tr.start, tr: tr})
	return tr
}

// Finish closes the trace's root span, logs slow spans, and retains the
// trace in the ring (evicting the oldest past capacity).
func (t *Tracer) Finish(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	tr.end = time.Now()
	root := tr.Root()
	if root.End.IsZero() {
		root.End = tr.end
	}
	if t.log != nil && t.slowSpan > 0 {
		for _, s := range tr.Spans() {
			if d := s.Duration(); d >= t.slowSpan {
				t.log.Warn("slow span",
					slog.String("trace_id", tr.id),
					slog.String("span", s.Name),
					slog.String("outcome", s.Outcome),
					slog.Duration("duration", d))
			}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, tr)
	} else {
		old := t.ring[t.pos]
		delete(t.byID, old.id)
		t.ring[t.pos] = tr
		t.pos = (t.pos + 1) % t.capacity
	}
	t.byID[tr.id] = tr
}

// Get returns a finished trace by ID.  Traces still in flight are not
// found: a trace becomes queryable the moment its request completes.
func (t *Tracer) Get(id string) (*Trace, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.byID[id]
	return tr, ok
}

// Len reports how many finished traces are retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// spanCtxKey keys the active span in a context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying s as the active span, the parent of
// engine job spans started under it.  A nil span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the active span, or nil when the context carries
// no trace — the zero-overhead signal that tracing is off for this work.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}
