package obs

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceSpanTree builds a small request-shaped tree and checks IDs,
// parentage, outcomes and visibility rules.
func TestTraceSpanTree(t *testing.T) {
	tr := NewTracer(4)
	trace := tr.Start("GET /v1/experiments/fig4")
	if len(trace.ID()) != 16 {
		t.Fatalf("trace ID %q, want 16 hex chars", trace.ID())
	}
	if _, ok := tr.Get(trace.ID()); ok {
		t.Fatal("unfinished trace visible to Get")
	}

	root := trace.Root()
	batch := root.Child("engine.batch")
	j1 := batch.Child("fig4")
	j1.EndWith("computed")
	j2 := batch.Child("fig4")
	j2.EndWith("cache-memory")
	j3 := batch.Child("fig4")
	j3.Fail(errors.New("boom"))
	batch.EndWith("")
	tr.Finish(trace)

	got, ok := tr.Get(trace.ID())
	if !ok {
		t.Fatal("finished trace not found")
	}
	spans := got.Spans()
	if len(spans) != 5 {
		t.Fatalf("%d spans, want 5", len(spans))
	}
	if spans[0].Parent != 0 || spans[0].Name != "GET /v1/experiments/fig4" {
		t.Fatalf("bad root span: %+v", spans[0])
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatal("batch span not parented to root")
	}
	for i, want := range []string{"computed", "cache-memory", "error"} {
		s := spans[2+i]
		if s.Parent != spans[1].ID {
			t.Fatalf("job span %d not parented to batch", i)
		}
		if s.Outcome != want {
			t.Fatalf("job span %d outcome %q, want %q", i, s.Outcome, want)
		}
		if s.End.Before(s.Start) {
			t.Fatalf("job span %d ends before it starts", i)
		}
	}
	if spans[4].Err != "boom" {
		t.Fatalf("failed span err %q, want boom", spans[4].Err)
	}
	if got.End().IsZero() || spans[0].End.IsZero() {
		t.Fatal("finish did not close the trace/root")
	}
}

// TestTracerRingEviction fills the ring past capacity and checks the oldest
// traces fall out of the index.
func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	var ids []string
	for i := 0; i < 5; i++ {
		trace := tr.Start("req")
		ids = append(ids, trace.ID())
		tr.Finish(trace)
	}
	if tr.Len() != 3 {
		t.Fatalf("ring holds %d, want 3", tr.Len())
	}
	for _, id := range ids[:2] {
		if _, ok := tr.Get(id); ok {
			t.Errorf("evicted trace %s still queryable", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := tr.Get(id); !ok {
			t.Errorf("recent trace %s not queryable", id)
		}
	}
}

// TestTraceSpanBound checks the per-trace span cap drops (and counts)
// overflow instead of growing without bound.
func TestTraceSpanBound(t *testing.T) {
	tr := NewTracer(1)
	trace := tr.Start("big")
	root := trace.Root()
	for i := 0; i < maxSpansPerTrace+100; i++ {
		s := root.Child("job")
		s.EndWith("computed")
	}
	if n := len(trace.Spans()); n != maxSpansPerTrace {
		t.Fatalf("%d spans retained, want %d", n, maxSpansPerTrace)
	}
	if d := trace.Dropped(); d != 101 {
		t.Fatalf("dropped %d, want 101", d)
	}
}

// TestSpanContext checks context propagation plumbing.
func TestSpanContext(t *testing.T) {
	ctx := context.Background()
	if SpanFromContext(ctx) != nil || SpanFromContext(ctx).TraceID() != "" {
		t.Fatal("empty context carries a span")
	}
	if ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("nil span should not wrap the context")
	}
	tr := NewTracer(1)
	trace := tr.Start("req")
	ctx = ContextWithSpan(ctx, trace.Root())
	if SpanFromContext(ctx) != trace.Root() {
		t.Fatal("span not recovered from context")
	}
	if SpanFromContext(ctx).TraceID() != trace.ID() {
		t.Fatal("trace ID not recovered from context")
	}
}

// TestSlowSpanLogging checks spans over the threshold are logged with the
// trace ID when the trace finishes.
func TestSlowSpanLogging(t *testing.T) {
	var buf bytes.Buffer
	mu := &sync.Mutex{}
	log := slog.New(slog.NewJSONHandler(lockedWriter{mu, &buf}, nil))
	tr := NewTracer(1)
	tr.SetSlowSpan(time.Millisecond, log)

	trace := tr.Start("req")
	slow := trace.Root().Child("slow-job")
	slow.Start = slow.Start.Add(-10 * time.Millisecond)
	slow.EndWith("computed")
	fast := trace.Root().Child("fast-job")
	fast.EndWith("cache-memory")
	tr.Finish(trace)

	out := buf.String()
	if !strings.Contains(out, "slow span") || !strings.Contains(out, "slow-job") {
		t.Fatalf("slow span not logged: %q", out)
	}
	if !strings.Contains(out, trace.ID()) {
		t.Fatalf("log line missing trace ID: %q", out)
	}
	if strings.Contains(out, "fast-job") {
		t.Fatalf("fast span logged as slow: %q", out)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestTracerConcurrency drives concurrent traces with concurrent Get calls;
// meaningful under -race.
func TestTracerConcurrency(t *testing.T) {
	tr := NewTracer(8)
	var writers, readers sync.WaitGroup
	ids := make(chan string, 64)
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 16; i++ {
				trace := tr.Start("req")
				for j := 0; j < 8; j++ {
					s := trace.Root().Child("job")
					s.EndWith("computed")
				}
				tr.Finish(trace)
				ids <- trace.ID()
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for id := range ids {
			if trace, ok := tr.Get(id); ok {
				for _, s := range trace.Spans() {
					_ = s.Duration()
				}
			}
		}
	}()
	writers.Wait()
	close(ids)
	readers.Wait()
}
