// One benchmark per table and figure of the paper's evaluation, plus the
// ablation, engine and simulator-grid benches.  Each bench runs the
// experiment end-to-end and reports the headline quantity as a custom metric
// so the regenerated numbers appear directly in `go test -bench` output.
// Repeated end-to-end and per-layer measurements, with their spread, come
// from the benchmark in bench/ (`bash bench/run.sh`).
package speedofdata_test

import (
	"context"
	"testing"

	"speedofdata/internal/circuits"
	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/factory"
	"speedofdata/internal/fowler"
	"speedofdata/internal/iontrap"
	"speedofdata/internal/microarch"
	"speedofdata/internal/noise"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
	"speedofdata/internal/steane"
)

// benchBits keeps the per-iteration cost of the circuit-level benches modest
// while preserving every qualitative behaviour; the CLI (cmd/qsd) runs the
// full 32-bit versions.
const benchBits = 16

func generate(b *testing.B, kind circuits.Benchmark, bits int) *core.Analysis {
	b.Helper()
	a, err := core.AnalyzeBenchmark(kind, bits, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return &a
}

// BenchmarkTable2_CriticalPathSplit regenerates Table 2: the no-overlap
// critical-path split into data operations, QEC interaction and ancilla prep.
func BenchmarkTable2_CriticalPathSplit(b *testing.B) {
	for _, kind := range circuits.Benchmarks() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var prepFrac float64
			for i := 0; i < b.N; i++ {
				a := generate(b, kind, benchBits)
				_, _, prepFrac = a.Characterization.Fractions()
			}
			b.ReportMetric(prepFrac*100, "ancilla-prep-%")
		})
	}
}

// BenchmarkTable3_Bandwidths regenerates Table 3: the average encoded zero
// and π/8 ancilla bandwidths needed to run at the speed of data.
func BenchmarkTable3_Bandwidths(b *testing.B) {
	for _, kind := range circuits.Benchmarks() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var zero, pi8 float64
			for i := 0; i < b.N; i++ {
				a := generate(b, kind, benchBits)
				zero = a.Characterization.ZeroBandwidthPerMs
				pi8 = a.Characterization.Pi8BandwidthPerMs
			}
			b.ReportMetric(zero, "zero-anc/ms")
			b.ReportMetric(pi8, "pi8-anc/ms")
		})
	}
}

// BenchmarkTable5_ZeroFactoryUnits regenerates the Table 5 functional-unit
// characteristics.
func BenchmarkTable5_ZeroFactoryUnits(b *testing.B) {
	tech := iontrap.Default()
	var cxOut float64
	for i := 0; i < b.N; i++ {
		for _, u := range factory.ZeroFactoryUnits() {
			if u.Name == "CX Stage" {
				cxOut = u.OutBandwidth(tech)
			}
		}
	}
	b.ReportMetric(cxOut, "cx-out-qubits/ms")
}

// BenchmarkTable6_ZeroFactoryMatch regenerates the bandwidth-matched
// pipelined zero factory (Table 6, Section 4.4.1).
func BenchmarkTable6_ZeroFactoryMatch(b *testing.B) {
	tech := iontrap.Default()
	var d factory.Design
	for i := 0; i < b.N; i++ {
		d = factory.PipelinedZeroFactory(tech)
	}
	b.ReportMetric(float64(d.TotalArea()), "macroblocks")
	b.ReportMetric(d.ThroughputPerMs, "anc/ms")
}

// BenchmarkTable7_Pi8FactoryStages regenerates the Table 7 stage
// characteristics.
func BenchmarkTable7_Pi8FactoryStages(b *testing.B) {
	tech := iontrap.Default()
	var catIn float64
	for i := 0; i < b.N; i++ {
		for _, u := range factory.Pi8FactoryUnits() {
			if u.Name == "Cat State Prepare" {
				catIn = u.InBandwidth(tech)
			}
		}
	}
	b.ReportMetric(catIn, "cat-in-qubits/ms")
}

// BenchmarkTable8_Pi8FactoryMatch regenerates the bandwidth-matched π/8
// factory (Table 8, Section 4.4.2).
func BenchmarkTable8_Pi8FactoryMatch(b *testing.B) {
	tech := iontrap.Default()
	var d factory.Design
	for i := 0; i < b.N; i++ {
		d = factory.Pi8Factory(tech)
	}
	b.ReportMetric(float64(d.TotalArea()), "macroblocks")
	b.ReportMetric(d.ThroughputPerMs, "anc/ms")
}

// BenchmarkTable9_AreaBreakdown regenerates the Table 9 chip-area breakdown.
func BenchmarkTable9_AreaBreakdown(b *testing.B) {
	for _, kind := range circuits.Benchmarks() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var breakdown core.AreaBreakdown
			for i := 0; i < b.N; i++ {
				a := generate(b, kind, benchBits)
				breakdown = a.Breakdown
			}
			dataFrac, _, _ := breakdown.Fractions()
			b.ReportMetric(float64(breakdown.TotalArea()), "macroblocks")
			b.ReportMetric(dataFrac*100, "data-%")
		})
	}
}

// BenchmarkFigure4_PrepErrorRates regenerates the Figure 4 comparison of
// encoded-zero preparation circuits (first-order enumeration plus a modest
// Monte Carlo).
func BenchmarkFigure4_PrepErrorRates(b *testing.B) {
	code := steane.NewCode()
	model := noise.DefaultModel()
	for name, protocol := range steane.StandardProtocols(code) {
		name, protocol := name, protocol
		b.Run(name, func(b *testing.B) {
			sim, err := noise.NewSimulator(code, protocol, model)
			if err != nil {
				b.Fatal(err)
			}
			var est noise.Estimate
			for i := 0; i < b.N; i++ {
				est = sim.FirstOrder()
			}
			b.ReportMetric(est.UncorrectableRate, "uncorrectable-rate")
		})
	}
}

// BenchmarkFigure4_MonteCarlo measures the Monte Carlo sampling throughput of
// the noise simulator on the verify-and-correct circuit (the compiled dense
// sampler, the default everywhere).
func BenchmarkFigure4_MonteCarlo(b *testing.B) {
	code := steane.NewCode()
	sim, err := noise.NewSimulator(code, steane.VerifyAndCorrectProtocol(code), noise.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.MonteCarlo(2000, int64(i))
	}
	b.ReportMetric(2000*float64(b.N)/b.Elapsed().Seconds(), "trials/sec")
}

// BenchmarkFigure7_AncillaDemandProfile regenerates the Figure 7 demand
// profiles.
func BenchmarkFigure7_AncillaDemandProfile(b *testing.B) {
	for _, kind := range circuits.Benchmarks() {
		kind := kind
		c, err := circuits.Generate(kind, benchBits)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				profile, err := schedule.DemandProfile(c, schedule.DefaultLatencyModel(), 50)
				if err != nil {
					b.Fatal(err)
				}
				peak = 0
				prev := 0.0
				for _, p := range profile {
					if width := p.TimeMs - prev; width > 0 && float64(p.ZeroAncillae)/width > peak {
						peak = float64(p.ZeroAncillae) / width
					}
					prev = p.TimeMs
				}
			}
			b.ReportMetric(peak, "peak-anc/ms")
		})
	}
}

// BenchmarkFigure8_ThroughputSweep regenerates the Figure 8 execution-time vs
// ancilla-throughput curves.
func BenchmarkFigure8_ThroughputSweep(b *testing.B) {
	for _, kind := range circuits.Benchmarks() {
		kind := kind
		c, err := circuits.Generate(kind, benchBits)
		if err != nil {
			b.Fatal(err)
		}
		model := schedule.DefaultLatencyModel()
		ch, err := schedule.Characterize(c, model)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) {
			var atAverage float64
			for i := 0; i < b.N; i++ {
				sweep, err := schedule.ThroughputSweepEngine(context.Background(), nil, c, model, schedule.DefaultSweepRates(ch.ZeroBandwidthPerMs))
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range sweep {
					if p.ThroughputPerMs >= ch.ZeroBandwidthPerMs {
						atAverage = p.ExecutionTimeMs
						break
					}
				}
			}
			b.ReportMetric(atAverage, "exec-ms-at-avg-bw")
		})
	}
}

// BenchmarkFigure15_Microarchitectures regenerates the Figure 15 comparison
// for the carry-lookahead adder.
func BenchmarkFigure15_Microarchitectures(b *testing.B) {
	c, err := circuits.Generate(circuits.QCLA, benchBits)
	if err != nil {
		b.Fatal(err)
	}
	base := microarch.DefaultConfig(microarch.FullyMultiplexed)
	base.CacheSlots = 16
	var fmPlateau, qlaTime float64
	for i := 0; i < b.N; i++ {
		curves, err := microarch.Figure15Engine(context.Background(), nil, c, microarch.Figure15Config{Base: base, MaxScale: 32})
		if err != nil {
			b.Fatal(err)
		}
		fmPlateau = microarch.PlateauTimeMs(curves[microarch.FullyMultiplexed])
		qlaTime = curves[microarch.QLA].Points[0].ExecutionTimeMs
	}
	b.ReportMetric(fmPlateau, "fm-plateau-ms")
	b.ReportMetric(qlaTime, "qla-ms")
	if fmPlateau > 0 {
		b.ReportMetric(qlaTime/fmPlateau, "qla/fm-speedup")
	}
}

// BenchmarkFowlerSearch measures the H/T sequence search (Section 2.5): the
// best approximation of the π/16 rotation reachable within a ten-gate budget.
func BenchmarkFowlerSearch(b *testing.B) {
	var seq fowler.Sequence
	for i := 0; i < b.N; i++ {
		s := fowler.NewSearcher(10)
		s.MaxStates = 50000
		seq, _ = s.ApproximateRz(4, 0.05)
	}
	b.ReportMetric(float64(seq.Len()), "sequence-gates")
	b.ReportMetric(seq.Error, "sequence-error")
}

// --- Ablation benches (DESIGN.md §6) ---

// BenchmarkAblationPipelinedVsSimple compares bandwidth per macroblock of the
// pipelined and simple zero factories (Section 5.3's observation).
func BenchmarkAblationPipelinedVsSimple(b *testing.B) {
	tech := iontrap.Default()
	var ratio float64
	for i := 0; i < b.N; i++ {
		simple := factory.SimpleZeroFactory{Tech: tech}
		pipe := factory.PipelinedZeroFactory(tech)
		simpleDensity := simple.ThroughputPerMs() / float64(simple.Area())
		pipeDensity := pipe.ThroughputPerMs / float64(pipe.TotalArea())
		ratio = pipeDensity / simpleDensity
	}
	b.ReportMetric(ratio, "pipelined/simple-density")
}

// BenchmarkAblationPrepVariants compares the error/area trade-off of the
// verify-only and verify-and-correct preparations.
func BenchmarkAblationPrepVariants(b *testing.B) {
	code := steane.NewCode()
	model := noise.DefaultModel()
	var errRatio, areaRatio float64
	for i := 0; i < b.N; i++ {
		verify, err := noise.NewSimulator(code, steane.VerifyOnlyProtocol(code), model)
		if err != nil {
			b.Fatal(err)
		}
		vc, err := noise.NewSimulator(code, steane.VerifyAndCorrectProtocol(code), model)
		if err != nil {
			b.Fatal(err)
		}
		ev := verify.FirstOrder()
		evc := vc.FirstOrder()
		if evc.UncorrectableRate > 0 {
			errRatio = ev.UncorrectableRate / evc.UncorrectableRate
		}
		areaRatio = float64(steane.VerifyAndCorrectProtocol(code).NumQubits) /
			float64(steane.VerifyOnlyProtocol(code).NumQubits)
	}
	b.ReportMetric(errRatio, "verify/vc-error-ratio")
	b.ReportMetric(areaRatio, "vc/verify-qubit-ratio")
}

// BenchmarkAblationDistribution compares fully-multiplexed distribution with
// dedicated per-qubit generators at (approximately) equal ancilla area.
func BenchmarkAblationDistribution(b *testing.B) {
	c, err := circuits.Generate(circuits.QCLA, benchBits)
	if err != nil {
		b.Fatal(err)
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		qla, err := microarch.Simulate(c, microarch.DefaultConfig(microarch.QLA))
		if err != nil {
			b.Fatal(err)
		}
		fmCfg := microarch.DefaultConfig(microarch.FullyMultiplexed)
		fmCfg.SharedFactories = int(float64(qla.AncillaFactoryArea)/298.0) + 1
		fm, err := microarch.Simulate(c, fmCfg)
		if err != nil {
			b.Fatal(err)
		}
		speedup = qla.ExecutionTimeMs() / fm.ExecutionTimeMs()
	}
	b.ReportMetric(speedup, "fm-speedup-at-equal-area")
}

// BenchmarkAblationMovement compares ballistic-within-region movement against
// teleport-everywhere movement for the fully-multiplexed organisation.
func BenchmarkAblationMovement(b *testing.B) {
	c, err := circuits.Generate(circuits.QRCA, benchBits)
	if err != nil {
		b.Fatal(err)
	}
	var penalty float64
	for i := 0; i < b.N; i++ {
		ballistic := microarch.DefaultConfig(microarch.FullyMultiplexed)
		ballistic.SharedFactories = 16
		base, err := microarch.Simulate(c, ballistic)
		if err != nil {
			b.Fatal(err)
		}
		teleport := ballistic
		teleport.Movement.BallisticPerGateUs = teleport.Movement.TeleportUs
		tele, err := microarch.Simulate(c, teleport)
		if err != nil {
			b.Fatal(err)
		}
		penalty = tele.ExecutionTimeMs() / base.ExecutionTimeMs()
	}
	b.ReportMetric(penalty, "teleport-everywhere-slowdown")
}

// BenchmarkAblationRotationSynthesis compares the expected data-critical-path
// cost of the exact π/2^k cascade (Figure 6) with the H/T approximation.
func BenchmarkAblationRotationSynthesis(b *testing.B) {
	model := fowler.DefaultLengthModel()
	var cascadeCX, sequenceGates float64
	for i := 0; i < b.N; i++ {
		c, err := fowler.Cascade(8)
		if err != nil {
			b.Fatal(err)
		}
		cascadeCX = c.ExpectedCX
		sequenceGates = float64(model.Length(1e-4))
	}
	b.ReportMetric(cascadeCX, "cascade-expected-cx")
	b.ReportMetric(sequenceGates, "ht-sequence-gates")
}

// --- Experiment-engine benches ---
//
// The engine benches measure the wall-clock effect of fanning the hot
// experiment paths (Monte Carlo sampling and the Figure 15 grid) across
// GOMAXPROCS workers versus the sequential reference.  Both variants produce
// byte-identical results (see TestMonteCarloParallelMatchesSequential and
// TestFigure15EngineMatchesSequential); the speedup is near-linear in core
// count on the Monte Carlo path because chunks are embarrassingly parallel.

func benchmarkMonteCarloEngine(b *testing.B, workers int) {
	code := steane.NewCode()
	sim, err := noise.NewSimulator(code, steane.VerifyAndCorrectProtocol(code), noise.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh seed per iteration defeats the engine's result cache so
		// the bench measures simulation throughput, not cache lookups.
		if _, err := sim.MonteCarloEngine(context.Background(), eng, 100000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineMonteCarloSequential is the 1-worker reference for the
// parallel Monte Carlo path.
func BenchmarkEngineMonteCarloSequential(b *testing.B) { benchmarkMonteCarloEngine(b, 1) }

// BenchmarkEngineMonteCarloParallel runs the same workload on GOMAXPROCS
// workers.
func BenchmarkEngineMonteCarloParallel(b *testing.B) { benchmarkMonteCarloEngine(b, 0) }

func benchmarkFigure15Engine(b *testing.B, workers int) {
	c, err := circuits.Generate(circuits.QCLA, benchBits)
	if err != nil {
		b.Fatal(err)
	}
	base := microarch.DefaultConfig(microarch.FullyMultiplexed)
	base.CacheSlots = 16
	cfg := microarch.Figure15Config{Base: base, MaxScale: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh engine per iteration defeats the result cache.
		if _, err := microarch.Figure15Engine(context.Background(), engine.New(workers), c, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineFigure15Sequential is the 1-worker reference for the
// architecture × scale grid.
func BenchmarkEngineFigure15Sequential(b *testing.B) { benchmarkFigure15Engine(b, 1) }

// BenchmarkEngineFigure15Parallel runs the grid on GOMAXPROCS workers.
func BenchmarkEngineFigure15Parallel(b *testing.B) { benchmarkFigure15Engine(b, 0) }

// BenchmarkEngineCachedExperiment measures a fully cache-served experiment
// repeat: the cost of regenerating a table once its jobs are memoised.
func BenchmarkEngineCachedExperiment(b *testing.B) {
	e := core.NewExperiments()
	e.Engine = engine.New(0)
	e.Bits = benchBits
	if _, err := e.Table2And3(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Table2And3(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Discrete-event simulation benches ---
//
// The event-driven simulator (internal/sim kernel) replaced the closed-form
// token-bucket model as the default Simulate path; with infinite buffers the
// two produce bit-identical results (TestEventSimulatorMatchesClosedFormOnFigure15Grid),
// so the interesting quantity is the runtime cost of the kernel on the hot
// Figure 15 grid.

// simGridPoint is one (architecture, scale) cell of the Figure 15 grid used
// by the simulator benches.
type simGridPoint struct {
	arch  microarch.Architecture
	scale int
}

func simGrid(maxScale int) []simGridPoint {
	var grid []simGridPoint
	for _, arch := range microarch.Architectures() {
		for _, s := range microarch.ScalesFor(arch, maxScale) {
			grid = append(grid, simGridPoint{arch: arch, scale: s})
		}
	}
	return grid
}

func simGridConfig(p simGridPoint) microarch.Config {
	cfg := microarch.DefaultConfig(p.arch)
	switch p.arch {
	case microarch.FullyMultiplexed:
		cfg.SharedFactories = p.scale
	default:
		cfg.GeneratorsPerQubit = p.scale
	}
	return cfg
}

func benchmarkSimGrid(b *testing.B, run func(*quantum.Circuit, microarch.Config) (microarch.Result, error)) {
	c, err := circuits.Generate(circuits.QCLA, benchBits)
	if err != nil {
		b.Fatal(err)
	}
	grid := simGrid(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range grid {
			if _, err := run(c, simGridConfig(p)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(grid)), "grid-points")
}

// BenchmarkSimClosedFormGrid measures the analytical (list-scheduling) model
// over the Figure 15 grid.
func BenchmarkSimClosedFormGrid(b *testing.B) {
	benchmarkSimGrid(b, microarch.SimulateClosedForm)
}

// BenchmarkSimEventGrid measures the event-driven kernel over the same grid
// (infinite buffers: identical results to the closed form).
func BenchmarkSimEventGrid(b *testing.B) {
	benchmarkSimGrid(b, microarch.Simulate)
}

// BenchmarkSimEventGridFiniteBuffer measures the finite-buffer mode, which
// adds producer ticks and resource hand-offs to the event stream.
func BenchmarkSimEventGridFiniteBuffer(b *testing.B) {
	benchmarkSimGrid(b, func(c *quantum.Circuit, cfg microarch.Config) (microarch.Result, error) {
		cfg.BufferAncillae = 16
		return microarch.Simulate(c, cfg)
	})
}
