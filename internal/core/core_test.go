package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"speedofdata/internal/circuits"
	"speedofdata/internal/engine"
	"speedofdata/internal/network"
	"speedofdata/internal/noise"
	"speedofdata/internal/obs"
	"speedofdata/internal/quantum"
)

func TestAnalyzeBenchmarkQRCA(t *testing.T) {
	a, err := AnalyzeBenchmark(circuits.QRCA, 32, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Table 9 row shape for the 32-bit QRCA: data area exactly 679
	// macroblocks; ancilla factories dominate the chip (the paper reports
	// two thirds for this most serial benchmark).
	if float64(a.Breakdown.DataArea) != 679 {
		t.Errorf("QRCA data area = %v, want 679", a.Breakdown.DataArea)
	}
	dataFrac, qecFrac, pi8Frac := a.Breakdown.Fractions()
	if dataFrac > 0.5 {
		t.Errorf("data fraction = %.2f; ancilla generation should dominate the chip", dataFrac)
	}
	if qecFrac <= pi8Frac {
		t.Errorf("QEC factories (%.2f) should outweigh π/8 factories (%.2f)", qecFrac, pi8Frac)
	}
	if math.Abs(dataFrac+qecFrac+pi8Frac-1) > 1e-9 {
		t.Error("fractions should sum to one")
	}
	// Taking ancilla preparation off the critical path buys a substantial
	// speedup (the whole premise of the paper).
	if a.Speedup() < 3 {
		t.Errorf("speedup = %.2f, expected several times", a.Speedup())
	}
	// The Qalypso plan must cover the demand.
	if a.Qalypso.ZeroBandwidthPerMs() < a.Characterization.ZeroBandwidthPerMs {
		t.Error("Qalypso plan does not cover the zero-ancilla demand")
	}
	pi8PerMs := 0.0
	for _, tile := range a.Qalypso.Tiles {
		pi8PerMs += float64(tile.Pi8Factories) * tile.Pi8Design.ThroughputPerMs
	}
	if pi8PerMs < a.Characterization.Pi8BandwidthPerMs {
		t.Error("Qalypso plan does not cover the π/8 demand")
	}
}

func TestAnalyzeAllBenchmarksShape(t *testing.T) {
	analyses, err := AnalyzeBenchmarksEngine(context.Background(), nil, 16, DefaultOptions(), circuits.Benchmarks()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(analyses) != 3 {
		t.Fatalf("expected 3 analyses, got %d", len(analyses))
	}
	qrca, qcla := analyses[0], analyses[1]
	// The QCLA needs far more factory area than the QRCA at the same width
	// (Table 9: 8682 vs 987 macroblocks of QEC factories for 32 bits).
	if float64(qcla.Breakdown.QECFactoryArea) < 2*float64(qrca.Breakdown.QECFactoryArea) {
		t.Errorf("QCLA QEC factory area (%v) should be several times the QRCA's (%v)",
			qcla.Breakdown.QECFactoryArea, qrca.Breakdown.QECFactoryArea)
	}
	for _, a := range analyses {
		if a.Breakdown.TotalArea() <= 0 {
			t.Errorf("%s: non-positive total area", a.Circuit.Name)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	c := quantum.NewCircuit("tiny", 2)
	c.Add(quantum.GateH, 0)
	opts := DefaultOptions()
	opts.TileQubits = 0
	if _, err := Analyze(c, opts); err == nil {
		t.Error("zero tile size should fail")
	}
	opts = DefaultOptions()
	opts.Latency.ZeroAncillaePerQEC = 0
	if _, err := Analyze(c, opts); err == nil {
		t.Error("invalid latency model should fail")
	}
}

func TestFactoriesForBandwidth(t *testing.T) {
	opts := DefaultOptions()
	zero, pi8 := FactoriesForBandwidth(opts.Tech, 34.8, 7.0)
	if pi8 != 1 {
		t.Errorf("π/8 factories = %d, want 1", pi8)
	}
	// 34.8 + 7.0 zeros/ms -> ceil(41.8/10.5) = 4.
	if zero != 4 {
		t.Errorf("zero factories = %d, want 4", zero)
	}
	z0, p0 := FactoriesForBandwidth(opts.Tech, 0, 0)
	if z0 != 0 || p0 != 0 {
		t.Errorf("no demand should need no factories, got %d/%d", z0, p0)
	}
}

func TestExperimentsTable2And3(t *testing.T) {
	e := NewExperiments()
	e.Bits = 8
	rows, err := e.Table2And3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		_, _, prep := r.Fractions()
		if prep < 0.5 {
			t.Errorf("%s: ancilla prep fraction %.2f should dominate", r.Name, prep)
		}
		if r.ZeroBandwidthPerMs <= 0 || r.Pi8BandwidthPerMs <= 0 {
			t.Errorf("%s: non-positive bandwidths", r.Name)
		}
	}
	// QCLA (row 1) needs the most bandwidth, as in Table 3.
	if rows[1].ZeroBandwidthPerMs <= rows[0].ZeroBandwidthPerMs {
		t.Error("QCLA should need more bandwidth than QRCA")
	}
}

func TestExperimentsTables5And7(t *testing.T) {
	e := NewExperiments()
	t5 := e.Table5()
	if len(t5) != 5 {
		t.Fatalf("Table 5 rows = %d, want 5", len(t5))
	}
	wantLatency := map[string]float64{
		"Zero Prep": 73, "CX Stage": 95, "Cat State Prep": 62,
		"Verification": 82, "B/P Correction": 138,
	}
	for _, r := range t5 {
		if r.LatencyUs != wantLatency[r.Name] {
			t.Errorf("%s latency = %v, want %v", r.Name, r.LatencyUs, wantLatency[r.Name])
		}
		if r.SymbolicLatency == "" || r.InBWPerMs <= 0 {
			t.Errorf("%s row incomplete: %+v", r.Name, r)
		}
	}
	t7 := e.Table7()
	if len(t7) != 4 {
		t.Fatalf("Table 7 rows = %d, want 4", len(t7))
	}
}

func TestExperimentsFactoryDesigns(t *testing.T) {
	e := NewExperiments()
	simple, zero, pi8 := e.FactoryDesigns()
	if simple.LatencyUs() != 323 {
		t.Errorf("simple factory latency = %v", simple.LatencyUs())
	}
	if zero.TotalArea() != 298 || pi8.TotalArea() != 403 {
		t.Errorf("factory areas = %v / %v, want 298 / 403", zero.TotalArea(), pi8.TotalArea())
	}
}

func TestExperimentsTable9SmallWidth(t *testing.T) {
	e := NewExperiments()
	e.Bits = 8
	rows, err := e.Table9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		dataFrac, _, _ := r.Fractions()
		if dataFrac >= 0.5 {
			t.Errorf("%s: data should not dominate the chip (%.2f)", r.Name, dataFrac)
		}
	}
}

func TestExperimentsFigure4Small(t *testing.T) {
	e := NewExperiments()
	results, err := e.Figure4Sampled(2000, 1, noise.SamplingDense)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("expected 4 preparation variants, got %d", len(results))
	}
	byName := map[string]PrepErrorResult{}
	for _, r := range results {
		byName[r.Name] = r
		if r.PaperRate <= 0 {
			t.Errorf("%s: missing paper rate", r.Name)
		}
		if r.Ops.Total() <= 0 {
			t.Errorf("%s: missing op counts", r.Name)
		}
	}
	if byName["verify-and-correct"].FirstOrder.UncorrectableRate >= byName["basic"].FirstOrder.UncorrectableRate {
		t.Error("verify-and-correct should beat basic at first order")
	}
}

func TestExperimentsFigures7And8(t *testing.T) {
	e := NewExperiments()
	e.Bits = 8
	profiles, err := e.Figure7(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 3 {
		t.Fatalf("expected 3 profiles, got %d", len(profiles))
	}
	for name, p := range profiles {
		if len(p) != 10 {
			t.Errorf("%s: %d buckets, want 10", name, len(p))
		}
	}
	sweeps, err := e.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range sweeps {
		if len(s) == 0 {
			t.Errorf("%s: empty sweep", name)
		}
		// Execution time decreases (weakly) with throughput.
		for i := 1; i < len(s); i++ {
			if s[i].ExecutionTimeMs > s[i-1].ExecutionTimeMs*1.000001 {
				t.Errorf("%s: execution time not monotone", name)
				break
			}
		}
	}
}

func TestExperimentsFigure15Small(t *testing.T) {
	e := NewExperiments()
	e.Bits = 8
	curves, err := e.Figure15Buffered(circuits.QCLA, 8, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 5 {
		t.Fatalf("expected 5 curves, got %d", len(curves))
	}
	for arch, c := range curves {
		if len(c.Points) == 0 {
			t.Errorf("%v: empty curve", arch)
		}
	}
}

func TestExperimentsFowler(t *testing.T) {
	e := NewExperiments()
	res, err := e.Fowler(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sequences) != 4 || len(res.TargetsK) != 4 {
		t.Fatalf("expected sequences for k=3..6, got %d", len(res.Sequences))
	}
	// k=3 is the T gate itself.
	if res.Sequences[0].Gates != "T" {
		t.Errorf("k=3 sequence = %q, want T", res.Sequences[0].Gates)
	}
	if len(res.Cascade) != 6 {
		t.Errorf("expected 6 cascade rows, got %d", len(res.Cascade))
	}
	if res.LengthAt1em4 < 20 {
		t.Errorf("modelled length at 1e-4 = %d, expected a few dozen", res.LengthAt1em4)
	}
}

// Parallel experiment runs must reproduce the sequential results exactly:
// the engine's per-job RNG streams and order-preserving collection make
// worker count invisible in the output.
func TestParallelExperimentsMatchSequential(t *testing.T) {
	seq := NewExperiments()
	seq.Bits = 8
	par := NewExperiments()
	par.Engine = engine.New(4)
	par.Bits = 8

	seqCh, err := seq.Table2And3()
	if err != nil {
		t.Fatal(err)
	}
	parCh, err := par.Table2And3()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqCh) != len(parCh) {
		t.Fatalf("characterisation counts differ: %d vs %d", len(seqCh), len(parCh))
	}
	for i := range seqCh {
		if seqCh[i] != parCh[i] {
			t.Errorf("characterisation %d: parallel %+v != sequential %+v", i, parCh[i], seqCh[i])
		}
	}

	seqF4, err := seq.Figure4Sampled(5000, 11, noise.SamplingDense)
	if err != nil {
		t.Fatal(err)
	}
	parF4, err := par.Figure4Sampled(5000, 11, noise.SamplingDense)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqF4 {
		if seqF4[i] != parF4[i] {
			t.Errorf("figure 4 row %d: parallel %+v != sequential %+v", i, parF4[i], seqF4[i])
		}
	}

	seq15, err := seq.Figure15Buffered(circuits.QRCA, 8, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	par15, err := par.Figure15Buffered(circuits.QRCA, 8, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for arch, want := range seq15 {
		got := par15[arch]
		if len(got.Points) != len(want.Points) {
			t.Fatalf("%v: point counts differ", arch)
		}
		for i := range want.Points {
			if got.Points[i] != want.Points[i] {
				t.Errorf("%v point %d: parallel %+v != sequential %+v", arch, i, got.Points[i], want.Points[i])
			}
		}
	}
}

// Repeating an experiment on the same runner must be served from the
// engine's result cache.
func TestExperimentsCacheAcrossRepeats(t *testing.T) {
	e := NewExperiments()
	e.Engine = engine.New(2)
	e.Bits = 8
	if _, err := e.Table2And3(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Table2And3(); err != nil {
		t.Fatal(err)
	}
	hits := e.Engine.Tiers().MemoryHits
	if hits == 0 {
		t.Error("repeated experiment should hit the engine cache")
	}
}

// netsweep, netfault and netdegrade are cell lists over one mesh driver, so
// on one engine a cell two of them share is computed once: netfault's
// pristine arm and netdegrade's zero-failure row are netsweep cells, and on
// the 2x2 mesh netdegrade's one-boundary row is netfault's dead-bisection
// cell.  The shared rows agree field by field with each other and with the
// same scenarios computed on an engine of their own.
func TestMeshScenariosShareCells(t *testing.T) {
	e := NewExperiments()
	e.Bits = 8
	e.Engine = engine.New(1)
	reg := obs.NewRegistry()
	e.Engine.Instrument(reg)
	p := DefaultRunParams()
	bench, err := circuits.ParseBenchmark(p.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := e.NetSweep(bench, p.Tiles, p.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	fault, err := e.NetFault(bench, p.Tiles, p.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	degrade, err := e.NetDegrade(bench, p.Tiles, p.Buffer, p.Faults)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sweep) + len(fault) + len(degrade); n != 24 {
		t.Fatalf("scenarios returned %d cells, want 24 (10 netsweep, 9 netfault, 5 netdegrade)", n)
	}
	jobs := reg.Histogram("qsd_engine_job_seconds",
		"Compute latency of engine jobs by kind.", obs.Labels{"kind": "network.sweep"})
	if got := jobs.Count(); got != 19 {
		t.Errorf("computed %d mesh jobs for the 24 cells, want 19", got)
	}

	sweepCell := func(tiles int, factor float64) network.Point {
		for _, pt := range sweep {
			if pt.Tiles == tiles && pt.LinkFactor == factor {
				return pt
			}
		}
		t.Fatalf("netsweep has no %d-tile cell at %vx", tiles, factor)
		return network.Point{}
	}
	for j, factor := range netFaultFactors {
		if want := sweepCell(p.Tiles, factor); !reflect.DeepEqual(fault[j], want) {
			t.Errorf("netfault pristine x%v = %+v, netsweep cell %+v", factor, fault[j], want)
		}
	}
	if want := sweepCell(p.Tiles, 1); !reflect.DeepEqual(degrade[0], want) {
		t.Errorf("netdegrade zero-failure row = %+v, netsweep cell %+v", degrade[0], want)
	}
	dead := fault[2*len(netFaultFactors)+1] // the dead-bisection arm at matched bandwidth
	if !reflect.DeepEqual(degrade[1], dead) {
		t.Errorf("netdegrade one-boundary row = %+v, netfault dead-bisection cell %+v", degrade[1], dead)
	}

	alone := NewExperiments()
	alone.Bits = e.Bits
	if got, err := alone.NetFault(bench, p.Tiles, p.Buffer); err != nil || !reflect.DeepEqual(got, fault) {
		t.Errorf("netfault on its own engine differs from the shared one (%v)", err)
	}
	if got, err := alone.NetDegrade(bench, p.Tiles, p.Buffer, p.Faults); err != nil || !reflect.DeepEqual(got, degrade) {
		t.Errorf("netdegrade on its own engine differs from the shared one (%v)", err)
	}
}

// fig15, buffersweep and fig15buf each sweep microarch configurations as
// one job per configuration, keyed by the whole configuration, so on one
// engine a cell two of them reach is computed once.  At 8-bit QCLA, fig15's
// scale-1 QLA and CQLA cells are its GQLA and GCQLA cells, so it finds 2 of
// its 23 cells in memory; buffersweep's Fully-Multiplexed infinite-buffer
// reference is the fig15 cell at the matched factory count; and fig15buf at
// buffer 0 is fig15's whole grid.  Only microarch.simulate jobs count: the
// circuit and its characterization the three share are memory hits too.
// Each output equals the same scenario run on an engine of its own.
func TestFigure15ScenariosShareCells(t *testing.T) {
	e := NewExperiments()
	e.Bits = 8
	e.Engine = engine.New(1)
	reg := obs.NewRegistry()
	e.Engine.Instrument(reg)
	jobs := reg.Histogram("qsd_engine_job_seconds",
		"Compute latency of engine jobs by kind.", obs.Labels{"kind": "microarch.simulate"})
	// A sequential engine with no store serves each cell from memory or
	// computes it, and reports both to Progress.
	var cells int64
	e.Engine.Progress = func(_, _ int, key, _ string) {
		if strings.HasPrefix(key, "microarch.simulate|") {
			cells++
		}
	}
	base := DefaultRunParams()
	if base.Benchmark != circuits.QCLA.String() {
		t.Fatalf("default benchmark %s, want QCLA", base.Benchmark)
	}
	fm, unbuffered := base, base
	fm.Arch = "fm"
	unbuffered.Buffer = 0
	for _, run := range []struct {
		id         string
		p          RunParams
		cells      int64
		memoryHits int64
	}{
		{"fig15", base, 23, 2},
		{"buffersweep", fm, 10, 1},
		{"fig15buf", unbuffered, 23, 23},
	} {
		computed, seen := jobs.Count(), cells
		got, err := RunExperiment(e, run.id, run.p)
		if err != nil {
			t.Fatalf("%s: %v", run.id, err)
		}
		computed, seen = jobs.Count()-computed, cells-seen
		if hits := seen - computed; hits != run.memoryHits || seen != run.cells {
			t.Errorf("%s: %d cells from the memory tier and %d computed, want %d of %d from memory",
				run.id, hits, computed, run.memoryHits, run.cells)
		}
		alone := NewExperiments()
		alone.Bits = e.Bits
		alone.Engine = engine.New(1)
		want, err := RunExperiment(alone, run.id, run.p)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s on its own engine differs from the shared one (%v)", run.id, err)
		}
	}
}

// Table 9 and the Shor estimate analyse the circuits and characterizations
// of the circuits.generate and schedule.characterize jobs Tables 2 and 3
// run: table9 alone on a fresh engine computes each kernel's two jobs once,
// and after Table 2 on one engine, every analysis holds the very circuit
// Table 2 generated and neither adds a generate or characterize job.
func TestAnalysesShareCircuitsAndCharacterizations(t *testing.T) {
	newExperiments := func() (Experiments, func(kind string) int64) {
		e := NewExperiments()
		e.Bits = 8
		e.Engine = engine.New(1)
		reg := obs.NewRegistry()
		e.Engine.Instrument(reg)
		return e, func(kind string) int64 {
			return reg.Histogram("qsd_engine_job_seconds",
				"Compute latency of engine jobs by kind.", obs.Labels{"kind": kind}).Count()
		}
	}
	kinds := []string{"circuits.generate", "schedule.characterize"}

	alone, computed := newExperiments()
	if _, err := RunExperiment(alone, "table9", DefaultRunParams()); err != nil {
		t.Fatal(err)
	}
	for _, kind := range kinds {
		if got := computed(kind); got != 3 {
			t.Errorf("table9 alone computed %d %s jobs, want 3", got, kind)
		}
	}

	e, computed := newExperiments()
	for _, id := range []string{"table2", "table9", "shor"} {
		if _, err := RunExperiment(e, id, DefaultRunParams()); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	benchmarks := circuits.Benchmarks()
	cs, err := e.generate(e.ctx(), benchmarks...)
	if err != nil {
		t.Fatal(err)
	}
	analyses, err := AnalyzeBenchmarksEngine(e.ctx(), e.Engine, e.Bits, e.Options, benchmarks...)
	if err != nil {
		t.Fatal(err)
	}
	ripple, lookahead, err := CompareShorAddersEngine(e.ctx(), e.Engine, e.Bits, e.Options)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range kinds {
		if got := computed(kind); got != 3 {
			t.Errorf("table2, table9 and shor computed %d %s jobs, want 3", got, kind)
		}
	}
	for i, b := range benchmarks {
		if analyses[i].Circuit != cs[i] {
			t.Errorf("Table 9 analysed another %s circuit than Table 2's", b)
		}
	}
	for _, a := range []struct {
		name string
		got  *quantum.Circuit
		want *quantum.Circuit
	}{
		{"ripple-carry adder", ripple.AdderAnalysis.Circuit, cs[0]},
		{"carry-lookahead adder", lookahead.AdderAnalysis.Circuit, cs[1]},
		{"ripple-carry QFT", ripple.QFTAnalysis.Circuit, cs[2]},
		{"carry-lookahead QFT", lookahead.QFTAnalysis.Circuit, cs[2]},
	} {
		if a.got != a.want {
			t.Errorf("Shor's %s analysis holds another circuit than Table 2's", a.name)
		}
	}
}

// A 2-tile mesh has only the bisection boundary, so netfault's dead arm
// disconnects it: the request fails with the typed partition error, also
// when the partitioned cell comes back from the engine cache.
func TestNetFaultPartitionedMeshFailsTyped(t *testing.T) {
	e := NewExperiments()
	e.Bits = 8
	e.Engine = engine.New(1)
	for run := 0; run < 2; run++ {
		if _, err := e.NetFault(circuits.QCLA, 2, DefaultBufferAncillae); !errors.Is(err, network.ErrPartitioned) {
			t.Errorf("run %d: netfault on a 2-tile mesh = %v, want ErrPartitioned", run, err)
		}
	}
	if hits := e.Engine.Tiers().MemoryHits; hits == 0 {
		t.Error("the second request recomputed every cell")
	}
}
