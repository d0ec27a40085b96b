package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/noise"
	"speedofdata/internal/obs"
	"speedofdata/internal/report"
	"speedofdata/internal/store"
)

// size sets how much work one run does.  fullSize is what the benchmark
// runs; the smoke test shrinks every workload about fifty-fold.
type size struct {
	// window is the measured part of a run.
	window time.Duration
	// setups is how often a set-up that computes repeats: the batch
	// workloads' reference, serve-cold's fresh server and its warm-up.
	// restarts is how often serve-warm restarts on its populated store.
	setups, restarts int
	// Batch workloads: operand widths, fig4's Monte Carlo budget, and how
	// many operations warm up before timing.
	reproBits, scenarioBits, fig4Trials int
	warmupOps                           int
	// Serving workloads: operand width and fig4 budget of the generated
	// requests, serve-cold's arrival rate, serve-warm's working set and the
	// request count of its traced replay.
	serveBits, serveTrials int
	rate                   float64
	warmURLs               int
	warmTraceRequests      int
	// Traced runs: repetitions of each direct layer timing and the dense
	// Monte Carlo budget per protocol.
	layerReps, noiseTrials int
	// golden makes seed-1 batch outputs match the committed digests.
	golden bool
}

func fullSize(window time.Duration) size {
	return size{
		window: window,
		setups: 3, restarts: 51,
		reproBits: 32, scenarioBits: 64, fig4Trials: noise.DefaultTrials,
		warmupOps: 2,
		serveBits: 16, serveTrials: 5000, rate: 20, warmURLs: 500, warmTraceRequests: 20000,
		layerReps: 3, noiseTrials: 20000,
		golden: true,
	}
}

// outcome is what a workload run reports before its metrics are matched
// against the spec.
type outcome struct {
	attempted, failed int
	// problems are failed checks that are not one operation's: a golden
	// digest mismatch, a reference that differs between set-ups.
	problems []string
	metrics  map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one set of inputs the benchmark runs.  run measures the
// end-to-end metrics with tracing off; trace replays the workload with the
// observability layer on and times direct calls into each layer.
type workload struct {
	name       string
	run, trace func(sz size, seed int64, log io.Writer) (*outcome, error)
}

var workloads = []workload{
	{"repro-cold", reproCold.run, reproCold.trace},
	{"sim-scale", simScale.run, simScale.trace},
	{"serve-cold", serveColdRun, serveColdTrace},
	{"serve-warm", serveWarmRun, serveWarmTrace},
}

// reproIDs are the paper's tables and figures; scenarioIDs the event-driven
// scenarios.
var (
	reproIDs = []string{"table1", "table2", "table3", "table5", "table6", "table7", "table8", "table9",
		"simple-factory", "fig4", "fig7", "fig8", "fig15", "fowler", "shor"}
	scenarioIDs = []string{"fig15buf", "buffersweep", "contention", "factory-sim",
		"netsweep", "netcontention", "netfault", "netdegrade"}
)

func allExperimentIDs() []string { return append(append([]string(nil), reproIDs...), scenarioIDs...) }

// batch is a closed-loop workload with one caller.  Its operation
// regenerates a set of experiments from nothing, as the CLI does: a fresh
// engine, core.RunReport, the text encoding.
type batch struct {
	name string
	ids  []string
	bits func(size) int
	// handlerID is the experiment the traced run times through the HTTP
	// handler.
	handlerID string
}

var (
	reproCold = batch{name: "repro-cold", ids: reproIDs, bits: func(sz size) int { return sz.reproBits }, handlerID: "all"}
	simScale  = batch{name: "sim-scale", ids: scenarioIDs, bits: func(sz size) int { return sz.scenarioBits }, handlerID: "fig15buf"}
)

func (b batch) op(ctx context.Context, eng *engine.Engine, sz size, seed int64) (report.Document, []byte, error) {
	e := core.NewExperiments()
	e.Bits = b.bits(sz)
	e.Engine = eng
	p := core.DefaultRunParams()
	p.Seed = seed
	p.Trials = sz.fig4Trials
	doc, err := core.RunReport(ctx, e, p, b.ids)
	if err != nil {
		return doc, nil, err
	}
	var buf bytes.Buffer
	if err := doc.Encode(&buf, report.FormatText); err != nil {
		return doc, nil, err
	}
	return doc, buf.Bytes(), nil
}

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenDigests maps each batch workload to the SHA-256 of its text output
// at seed 1 and full size.
func goldenDigests() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("parse testdata/golden.json: %w", err)
	}
	return g, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// setup computes the reference output on a sequential engine reps times.
// The median is the workload's set-up time; every reference must agree, and
// at seed 1 match the committed digest.
func (b batch) setup(sz size, seed int64, reps int, out *outcome) (ref []byte, doc report.Document, setupS float64, err error) {
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t := time.Now()
		d, text, err := b.op(context.Background(), engine.New(1), sz, seed)
		times = append(times, time.Since(t).Seconds())
		if err != nil {
			return nil, doc, 0, fmt.Errorf("%s reference: %w", b.name, err)
		}
		if ref != nil && !bytes.Equal(text, ref) {
			out.problem("%s: sequential reference differs between set-ups", b.name)
		}
		ref, doc = text, d
	}
	if sz.golden && seed == 1 {
		g, err := goldenDigests()
		if err != nil {
			return nil, doc, 0, err
		}
		if got := digest(ref); got != g[b.name] {
			out.problem("%s: output digest %s, committed golden %s", b.name, got, g[b.name])
		}
	}
	return ref, doc, median(times), nil
}

// errMismatch is an operation whose output differs from the reference.
var errMismatch = errors.New("output differs from the reference")

// checked runs one operation on eng and compares its text with ref.
func (b batch) checked(eng *engine.Engine, sz size, seed int64, ref []byte) error {
	_, text, err := b.op(context.Background(), eng, sz, seed)
	if err == nil && !bytes.Equal(text, ref) {
		err = errMismatch
	}
	return err
}

// minTimedOps is the fewest operations a batch run times, however short its
// window.
const minTimedOps = 3

// timeOps runs op back to back, with a collection before each, until the
// window has passed and at least minTimedOps have been attempted.  It
// returns every attempt's duration in ms and counts the attempts, and the
// failures, in out.  A failing op neither ends the loop nor prolongs it.
func timeOps(window time.Duration, out *outcome, op func() error) []float64 {
	var lat []float64
	start := time.Now()
	for len(lat) < minTimedOps || time.Since(start) < window {
		runtime.GC()
		t := time.Now()
		err := op()
		lat = append(lat, ms(time.Since(t)))
		out.attempted++
		if err != nil {
			out.failed++
		}
	}
	return lat
}

// run checks the parallel engine against the sequential reference on the
// warm-up operations, then times operations on a sequential engine.  The
// timed engine is sequential because a parallel one on a two-CPU host
// amplified the host's drift about 2.7-fold (a 12% slower host loop made
// parallel ops 33% slower, sequential ones 16%); engine.parallelism in the
// traced run reports how much of the host the parallel engine keeps busy.
func (b batch) run(sz size, seed int64, log io.Writer) (*outcome, error) {
	out := newOutcome()
	ref, _, setupS, err := b.setup(sz, seed, sz.setups, out)
	if err != nil {
		return nil, err
	}
	for i := 0; i < sz.warmupOps; i++ {
		out.attempted++
		if err := b.checked(engine.New(0), sz, seed, ref); err != nil {
			out.failed++
			out.problem("%s: parallel engine: %v", b.name, err)
		}
	}
	lat := timeOps(sz.window, out, func() error { return b.checked(engine.New(1), sz, seed, ref) })
	fmt.Fprintf(log, "%s: %d timed ops, tail percentile p75 (p%.0f supported by the sample count)\n",
		b.name, len(lat), 100*supportedQuantile(len(lat)))
	m := out.metrics
	m["setup_s"] = setupS
	m["latency_p50_ms"] = median(lat)
	m["latency_tail_ms"] = quantile(lat, 0.75)
	m["throughput_per_s"] = 1000 / mean(lat)
	return out, nil
}

// trace alternates untraced and traced operations on a sequential engine,
// as run times them, for half the window.  Then it measures what the
// parallel engine gains on the same operation and times direct calls into
// each layer on this workload's inputs.
func (b batch) trace(sz size, seed int64, log io.Writer) (*outcome, error) {
	out := newOutcome()
	ref, doc, _, err := b.setup(sz, seed, 1, out)
	if err != nil {
		return nil, err
	}
	lc := newLayerCounters()
	tracer := obs.NewTracer(0)
	st := newSpanStats()
	var plain, traced []float64
	var plainCPU time.Duration
	var delta counts
	hits, misses, coalesced := 0, 0, 0
	start := time.Now()
	for i := 0; len(traced) < 2 || time.Since(start) < sz.window/2; i++ {
		runtime.GC()
		eng := engine.New(1)
		ctx := context.Background()
		var tr *obs.Trace
		if i%2 == 1 {
			eng.Instrument(lc.reg)
			tr = tracer.Start(b.name)
			ctx = obs.ContextWithSpan(ctx, tr.Root())
		}
		before, cpu0 := lc.read(), cpuTime()
		t := time.Now()
		_, text, err := b.op(ctx, eng, sz, seed)
		d := time.Since(t)
		cpu := cpuTime() - cpu0
		out.attempted++
		if err != nil || !bytes.Equal(text, ref) {
			out.failed++
		}
		if tr == nil {
			plain = append(plain, ms(d))
			plainCPU += cpu
			continue
		}
		tracer.Finish(tr)
		st.add(tr)
		traced = append(traced, ms(d))
		delta = delta.plus(lc.read().minus(before))
		ti := eng.Tiers()
		hits, misses, coalesced = hits+ti.MemoryHits, misses+ti.MemoryMisses, coalesced+eng.Coalesced()
	}
	fmt.Fprintf(log, "%s: engine job self time covers %.1f%% of traced op time\n",
		b.name, 100*ratio(float64(st.selfTotal()), float64(st.rootTotal)))
	n := float64(len(traced))
	m := out.metrics
	st.perOp(m)
	delta.perOp(m, len(traced))
	m["engine.jobs_computed_per_op"] = delta.engineJobs / n
	m["engine.mem_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["engine.store_hit_ratio"] = 0
	m["engine.coalesced_per_op"] = float64(coalesced) / n
	var parCPU, parWall time.Duration
	for i := 0; i < max(1, sz.warmupOps); i++ {
		runtime.GC()
		cpu0, t := cpuTime(), time.Now()
		out.attempted++
		if err := b.checked(engine.New(0), sz, seed, ref); err != nil {
			out.failed++
		}
		parWall += time.Since(t)
		parCPU += cpuTime() - cpu0
	}
	m["engine.parallelism"] = ratio(float64(parCPU), float64(parWall))
	m["obs.overhead_frac"] = median(traced)/median(plain) - 1
	m["bench.cpu_per_op_s"] = plainCPU.Seconds() / float64(len(plain))
	m["bench.gen_late_p99_ms"] = 0
	// One CLI run touches no server.
	m["server.nonjob_frac"], m["server.shed_frac"], m["http.overhead_us"] = 0, 0, 0
	if err := b.storeProbe(sz, seed, m); err != nil {
		return nil, err
	}
	in := layerInput{bits: b.bits(sz), seed: seed, docs: []report.Document{doc},
		url:  fmt.Sprintf("/v1/experiments/%s?bits=%d&format=text", b.handlerID, b.bits(sz)),
		reps: sz.layerReps, trials: sz.noiseTrials}
	return out, layerMetrics(in, m)
}

// storeProbe runs one operation with a fresh store behind the engine, as
// `qsd -store` would, and reports how much of its work the store keeps.
func (b batch) storeProbe(sz size, seed int64, m map[string]float64) error {
	dir, err := os.MkdirTemp("", "qsdbench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	eng := engine.New(0)
	eng.Backend = st
	if _, _, err := b.op(context.Background(), eng, sz, seed); err != nil {
		st.Close()
		return err
	}
	s := st.Stats()
	m["store.puts_per_request"] = float64(s.Puts)
	m["store.put_skipped_frac"] = ratio(float64(s.Skipped), float64(s.Puts+s.Skipped))
	return st.Close()
}
