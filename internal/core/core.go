// Package core ties the reproduction together: it is the paper's primary
// contribution as a library.  Given a logical benchmark circuit and a
// technology, it computes the ancilla bandwidth the circuit needs to run at
// the speed of data (Section 3), sizes the pipelined encoded-zero and
// encoded-π/8 factories to supply it (Section 4), produces the chip area
// breakdown of Table 9 and the Qalypso tile plan of Section 5.3, and exposes
// the experiment runners used by the command-line tool and the benchmark
// harness to regenerate every table and figure in the evaluation.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"speedofdata/internal/circuits"
	"speedofdata/internal/engine"
	"speedofdata/internal/factory"
	"speedofdata/internal/iontrap"
	"speedofdata/internal/layout"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
)

// Options configures an analysis.
type Options struct {
	// Tech is the physical technology (default: ion trap, Tables 1 and 4).
	Tech iontrap.Technology
	// Latency is the logical latency / QEC accounting model.
	Latency schedule.LatencyModel
	// TileQubits is the Qalypso data-region size used for the tile plan.
	TileQubits int
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{
		Tech:       iontrap.Default(),
		Latency:    schedule.DefaultLatencyModel(),
		TileQubits: 32,
	}
}

// AreaBreakdown is one Table 9 row: the chip area needed to run one
// benchmark at the speed of data, split into data, QEC ancilla factories and
// π/8 ancilla factories (including the zero factories feeding the encoders).
type AreaBreakdown struct {
	Name string
	// ZeroBandwidthPerMs is the encoded-zero bandwidth for QEC (Table 9
	// column 2, identical to Table 3).
	ZeroBandwidthPerMs float64
	// Pi8BandwidthPerMs is the matching π/8 bandwidth.
	Pi8BandwidthPerMs float64
	// DataArea, QECFactoryArea and Pi8FactoryArea are the three area
	// components in macroblocks.
	DataArea       iontrap.Area
	QECFactoryArea iontrap.Area
	Pi8FactoryArea iontrap.Area
}

// TotalArea is the summed chip area.
func (a AreaBreakdown) TotalArea() iontrap.Area {
	return a.DataArea + a.QECFactoryArea + a.Pi8FactoryArea
}

// Fractions returns each component as a fraction of the total.
func (a AreaBreakdown) Fractions() (data, qec, pi8 float64) {
	total := float64(a.TotalArea())
	if total == 0 {
		return 0, 0, 0
	}
	return float64(a.DataArea) / total, float64(a.QECFactoryArea) / total, float64(a.Pi8FactoryArea) / total
}

// Analysis is the complete speed-of-data analysis of one benchmark circuit.
type Analysis struct {
	// Circuit is the analysed logical circuit.
	Circuit *quantum.Circuit
	// Characterization carries the Table 2 / Table 3 numbers.
	Characterization schedule.Characterization
	// ZeroFactory and Pi8Factory are the factory designs used for supply.
	ZeroFactory factory.Design
	Pi8Factory  factory.Design
	// Breakdown is the Table 9 row.
	Breakdown AreaBreakdown
	// Qalypso is the tiled chip plan (Section 5.3).
	Qalypso layout.Qalypso
}

// Speedup returns how much faster the circuit runs at the speed of data than
// with fully serialised ancilla preparation (the ratio of the Table 2 total
// to the speed-of-data time).
func (a Analysis) Speedup() float64 { return a.Characterization.Speedup() }

// Analyze performs the full analysis of a logical circuit.
func Analyze(c *quantum.Circuit, opts Options) (Analysis, error) {
	if opts.TileQubits <= 0 {
		return Analysis{}, fmt.Errorf("core: tile size must be positive, got %d", opts.TileQubits)
	}
	if err := opts.Latency.Validate(); err != nil {
		return Analysis{}, err
	}
	ch, err := schedule.Characterize(c, opts.Latency)
	if err != nil {
		return Analysis{}, err
	}
	zero := factory.PipelinedZeroFactory(opts.Tech)
	pi8 := factory.Pi8Factory(opts.Tech)

	breakdown := AreaBreakdown{
		Name:               c.Name,
		ZeroBandwidthPerMs: ch.ZeroBandwidthPerMs,
		Pi8BandwidthPerMs:  ch.Pi8BandwidthPerMs,
		DataArea:           layout.DataRegionArea(dataQubitCount(c)),
		QECFactoryArea:     zero.AreaForBandwidth(ch.ZeroBandwidthPerMs),
		Pi8FactoryArea:     factory.Pi8SupplyArea(pi8, zero, ch.Pi8BandwidthPerMs),
	}

	plan, err := layout.PlanQalypso(opts.Tech, dataQubitCount(c), opts.TileQubits,
		ch.ZeroBandwidthPerMs, ch.Pi8BandwidthPerMs)
	if err != nil {
		return Analysis{}, err
	}

	return Analysis{
		Circuit:          c,
		Characterization: ch,
		ZeroFactory:      zero,
		Pi8Factory:       pi8,
		Breakdown:        breakdown,
		Qalypso:          plan,
	}, nil
}

// dataQubitCount returns the number of encoded data qubits (including data
// ancillae) a circuit keeps alive, which determines the data-region area.
func dataQubitCount(c *quantum.Circuit) int { return c.NumQubits }

// AnalyzeBenchmark generates one of the paper's kernels at the given width
// and analyses it.
func AnalyzeBenchmark(b circuits.Benchmark, bits int, opts Options) (Analysis, error) {
	c, err := circuits.Generate(b, bits)
	if err != nil {
		return Analysis{}, err
	}
	return Analyze(c, opts)
}

// AnalyzeAllBenchmarksEngine analyses the paper's three kernels at the given
// width (32 in the paper) through the experiment engine, one job per kernel,
// in benchmark order.
func AnalyzeAllBenchmarksEngine(ctx context.Context, eng *engine.Engine, bits int, opts Options) ([]Analysis, error) {
	benchmarks := circuits.Benchmarks()
	jobs := make([]engine.Job[Analysis], len(benchmarks))
	for i, b := range benchmarks {
		b := b
		jobs[i] = engine.Job[Analysis]{
			Key: engine.Fingerprint("core.analyze", b, bits, opts.Tech, opts.Latency, opts.TileQubits),
			Run: func(context.Context, *rand.Rand) (Analysis, error) {
				return AnalyzeBenchmark(b, bits, opts)
			},
		}
	}
	return engine.Run(ctx, eng, jobs)
}

// FactoriesForBandwidth returns the whole number of pipelined zero factories
// and π/8 factories needed for a demand pair, a convenience used by examples.
func FactoriesForBandwidth(tech iontrap.Technology, zeroPerMs, pi8PerMs float64) (zeroCount, pi8Count int) {
	zero := factory.PipelinedZeroFactory(tech)
	pi8 := factory.Pi8Factory(tech)
	pi8Count = pi8.CountForBandwidth(pi8PerMs)
	zeroCount = zero.CountForBandwidth(zeroPerMs + math.Min(pi8PerMs, float64(pi8Count)*pi8.ThroughputPerMs))
	return zeroCount, pi8Count
}
