package engine

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"speedofdata/internal/obs"
)

// TestKindOf pins the key→label mapping for both key shapes in use.
func TestKindOf(t *testing.T) {
	cases := map[string]string{
		"qsd|fig4|32|1000":          "fig4",
		"qsd|table1|32":             "table1",
		"circuits.generate|QCLA|32": "circuits.generate",
		"mc|3|1.5":                  "mc",
		"bare":                      "bare",
	}
	for key, want := range cases {
		if got := kindOf(key); got != want {
			t.Errorf("kindOf(%q) = %q, want %q", key, got, want)
		}
	}
}

// TestEngineInstrument runs a batch twice on an instrumented engine and
// checks the registry view agrees with the engine's own counters.
func TestEngineInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(2)
	e.Instrument(reg)

	jobs := make([]Job[int], 4)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: Fingerprint("qsd", "obs-test", i),
			Run: func(context.Context, *rand.Rand) (int, error) {
				time.Sleep(time.Millisecond)
				return i, nil
			},
		}
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := Run(context.Background(), e, jobs); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"qsd_engine_jobs_total 4",       // second pass fully cached
		"qsd_engine_cache_hits_total 4", // the 4 repeats
		"qsd_engine_cache_misses_total 4",
		"qsd_engine_coalesced_total 0",
		"qsd_engine_cache_memory_entries 4",
		`qsd_engine_job_seconds_count{kind="obs-test"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	// The histogram recorded the ~1ms jobs.
	h := reg.Histogram("qsd_engine_job_seconds",
		"Compute latency of engine jobs by kind.", obs.Labels{"kind": "obs-test"})
	if p50 := h.Quantile(0.5); p50 < 500*time.Microsecond {
		t.Errorf("job p50 %v, want >= ~1ms", p50)
	}
}

// TestEngineTracePropagation runs a traced batch whose jobs schedule a
// nested batch, and checks the finished trace's span tree: root → outer
// jobs → inner jobs with correct parentage and cache-tier outcomes.
func TestEngineTracePropagation(t *testing.T) {
	tracer := obs.NewTracer(4)
	e := New(2)

	inner := func(ctx context.Context) error {
		jobs := []Job[int]{{
			Key: "stage.inner|x",
			Run: func(context.Context, *rand.Rand) (int, error) { return 1, nil },
		}}
		_, err := Run(ctx, e, jobs)
		return err
	}
	outer := make([]Job[int], 2)
	for i := range outer {
		outer[i] = Job[int]{
			Key: Fingerprint("qsd", "traced", i),
			Run: func(ctx context.Context, _ *rand.Rand) (int, error) {
				return 0, inner(ctx)
			},
		}
	}

	trace := tracer.Start("GET /v1/experiments/traced")
	ctx := obs.ContextWithSpan(context.Background(), trace.Root())
	if _, err := Run(ctx, e, outer); err != nil {
		t.Fatal(err)
	}
	// Second traced run: everything cached.
	trace2 := tracer.Start("GET /v1/experiments/traced")
	ctx2 := obs.ContextWithSpan(context.Background(), trace2.Root())
	if _, err := Run(ctx2, e, outer); err != nil {
		t.Fatal(err)
	}
	tracer.Finish(trace)
	tracer.Finish(trace2)

	got, ok := tracer.Get(trace.ID())
	if !ok {
		t.Fatal("trace not retained")
	}
	spans := got.Spans()
	byID := map[int64]*obs.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var outerSpans, innerSpans []*obs.Span
	for _, s := range spans {
		switch s.Name {
		case "traced":
			outerSpans = append(outerSpans, s)
		case "stage.inner":
			innerSpans = append(innerSpans, s)
		}
	}
	if len(outerSpans) != 2 {
		t.Fatalf("outer spans %d, want 2", len(outerSpans))
	}
	// The nested batch runs once (first outer job computes it; the second
	// sees a cache hit or coalesces), so at least one inner span exists.
	if len(innerSpans) < 1 {
		t.Fatalf("no inner spans recorded; spans: %+v", spans)
	}
	root := got.Root()
	for _, s := range outerSpans {
		if s.Parent != root.ID {
			t.Errorf("outer span parented to %d, want root %d", s.Parent, root.ID)
		}
		if s.Outcome != "computed" {
			t.Errorf("outer outcome %q, want computed on first run", s.Outcome)
		}
	}
	for _, s := range innerSpans {
		p, ok := byID[s.Parent]
		if !ok || p.Name != "traced" {
			t.Errorf("inner span parented to %v, want an outer job span", s.Parent)
		}
	}

	// The cached second trace marks every outer job as a cache hit.
	got2, _ := tracer.Get(trace2.ID())
	for _, s := range got2.Spans() {
		if s.Name == "traced" && s.Outcome != "cache-memory" {
			t.Errorf("second-run outer outcome %q, want cache-memory", s.Outcome)
		}
	}
}
