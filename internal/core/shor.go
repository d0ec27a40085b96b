package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"speedofdata/internal/circuits"
	"speedofdata/internal/engine"
	"speedofdata/internal/iontrap"
)

// This file extends the paper's per-kernel analysis to a whole-application
// resource estimate for Shor's factoring algorithm, the workload the paper's
// introduction motivates.  The estimator composes the measured kernel
// characteristics (adder latency and ancilla bandwidth at the speed of data)
// into the standard modular-exponentiation structure: factoring an n-bit
// modulus needs about 2n controlled modular multiplications, each built from
// about 2n modular additions, i.e. roughly 4n^2 + O(n) adder invocations,
// followed by an n-bit QFT.  This is the "factory sizing" use a downstream
// resource estimator would put the library to.

// ShorAdder selects which adder kernel the modular arithmetic uses.
type ShorAdder int

const (
	// ShorRippleCarry uses the serial QRCA (minimal area, maximal time).
	ShorRippleCarry ShorAdder = iota
	// ShorCarryLookahead uses the parallel QCLA (minimal time, maximal area).
	ShorCarryLookahead
)

// String names the adder choice.
func (a ShorAdder) String() string {
	switch a {
	case ShorRippleCarry:
		return "ripple-carry"
	case ShorCarryLookahead:
		return "carry-lookahead"
	default:
		return fmt.Sprintf("adder(%d)", int(a))
	}
}

// ShorEstimate is the resource estimate for factoring one modulus.
type ShorEstimate struct {
	// Bits is the modulus width n.
	Bits int
	// Adder is the kernel used for modular arithmetic.
	Adder ShorAdder
	// AdderInvocations is the number of adder calls in the modular
	// exponentiation (≈ 4n² + 2n).
	AdderInvocations int
	// AdderAnalysis and QFTAnalysis are the per-kernel speed-of-data analyses.
	AdderAnalysis Analysis
	QFTAnalysis   Analysis
	// ExecutionTime is the speed-of-data execution time of the whole
	// modular exponentiation plus the final QFT.
	ExecutionTime iontrap.Microseconds
	// ZeroBandwidthPerMs / Pi8BandwidthPerMs are the sustained ancilla
	// bandwidths the application needs (the adder phase dominates).
	ZeroBandwidthPerMs float64
	Pi8BandwidthPerMs  float64
	// ZeroFactories and Pi8Factories are the whole factories a Qalypso chip
	// needs to sustain those bandwidths.
	ZeroFactories int
	Pi8Factories  int
	// ChipArea is the total chip area: data region for 2n+O(n) logical
	// qubits plus the ancilla factories.
	ChipArea iontrap.Area
}

// ExecutionTimeSeconds is the estimated wall-clock time in seconds.
func (s ShorEstimate) ExecutionTimeSeconds() float64 {
	return float64(s.ExecutionTime) / 1e6
}

// EstimateShor estimates the resources needed to run Shor's algorithm on an
// n-bit modulus with the chosen adder kernel, under the library's
// speed-of-data execution model.
func EstimateShor(bits int, adder ShorAdder, opts Options) (ShorEstimate, error) {
	if bits < 2 {
		return ShorEstimate{}, requestErrorf("core: Shor estimate needs a modulus of at least 2 bits, got %d", bits)
	}
	var adderKind circuits.Benchmark
	switch adder {
	case ShorRippleCarry:
		adderKind = circuits.QRCA
	case ShorCarryLookahead:
		adderKind = circuits.QCLA
	default:
		return ShorEstimate{}, fmt.Errorf("core: unknown adder kind %v", adder)
	}

	adderAnalysis, err := AnalyzeBenchmark(adderKind, bits, opts)
	if err != nil {
		return ShorEstimate{}, err
	}
	qftAnalysis, err := AnalyzeBenchmark(circuits.QFT, bits, opts)
	if err != nil {
		return ShorEstimate{}, err
	}

	// Modular exponentiation: 2n controlled multiplications, each of about
	// 2n modular additions, each modular addition costing roughly one adder
	// invocation plus a comparison/correction of similar size (folded into a
	// constant factor of 2).  The final inverse QFT runs once.
	adderCalls := 2 * (4*bits*bits + 2*bits)
	est := ShorEstimate{
		Bits:             bits,
		Adder:            adder,
		AdderInvocations: adderCalls,
		AdderAnalysis:    adderAnalysis,
		QFTAnalysis:      qftAnalysis,
	}

	adderTime := float64(adderAnalysis.Characterization.SpeedOfDataTime)
	qftTime := float64(qftAnalysis.Characterization.SpeedOfDataTime)
	est.ExecutionTime = iontrap.Microseconds(float64(adderCalls)*adderTime + qftTime)

	// The sustained bandwidth is dominated by the adder phase; the QFT phase
	// is shorter and cheaper, so the chip is provisioned for the maximum of
	// the two.
	est.ZeroBandwidthPerMs = math.Max(adderAnalysis.Characterization.ZeroBandwidthPerMs,
		qftAnalysis.Characterization.ZeroBandwidthPerMs)
	est.Pi8BandwidthPerMs = math.Max(adderAnalysis.Characterization.Pi8BandwidthPerMs,
		qftAnalysis.Characterization.Pi8BandwidthPerMs)
	est.ZeroFactories, est.Pi8Factories = FactoriesForBandwidth(opts.Tech,
		est.ZeroBandwidthPerMs, est.Pi8BandwidthPerMs)

	// Data region: the exponentiation keeps the adder's working registers
	// plus an n-bit exponent register alive.
	dataQubits := adderAnalysis.Circuit.NumQubits + bits
	zeroArea := adderAnalysis.ZeroFactory.AreaForBandwidth(est.ZeroBandwidthPerMs)
	pi8Area := adderAnalysis.Pi8Factory.AreaForBandwidth(est.Pi8BandwidthPerMs) +
		adderAnalysis.ZeroFactory.AreaForBandwidth(est.Pi8BandwidthPerMs)
	est.ChipArea = iontrap.Area(float64(dataQubits)*7) + zeroArea + pi8Area
	return est, nil
}

// CompareShorAddersEngine estimates Shor's algorithm with both adder
// kernels as concurrent engine jobs, exposing the latency/area trade-off the
// paper's two adder benchmarks stand for.
func CompareShorAddersEngine(ctx context.Context, eng *engine.Engine, bits int, opts Options) (ripple, lookahead ShorEstimate, err error) {
	adders := []ShorAdder{ShorRippleCarry, ShorCarryLookahead}
	jobs := make([]engine.Job[ShorEstimate], len(adders))
	for i, a := range adders {
		a := a
		jobs[i] = engine.Job[ShorEstimate]{
			Key: engine.Fingerprint("core.shor", a, bits, opts.Tech, opts.Latency, opts.TileQubits),
			Run: func(context.Context, *rand.Rand) (ShorEstimate, error) {
				return EstimateShor(bits, a, opts)
			},
		}
	}
	out, err := engine.Run(ctx, eng, jobs)
	if err != nil {
		return ShorEstimate{}, ShorEstimate{}, err
	}
	return out[0], out[1], nil
}

// NoOverlapExecutionTime is the execution time of the same workload when
// ancilla preparation is fully serialised behind the data, used to report the
// benefit of offline ancilla generation at application scale.
func (s ShorEstimate) NoOverlapExecutionTime() iontrap.Microseconds {
	adderTime := float64(s.AdderAnalysis.Characterization.NoOverlapTotal())
	qftTime := float64(s.QFTAnalysis.Characterization.NoOverlapTotal())
	return iontrap.Microseconds(float64(s.AdderInvocations)*adderTime + qftTime)
}

// Speedup is the application-level speedup from running at the speed of data.
func (s ShorEstimate) Speedup() float64 {
	if s.ExecutionTime == 0 {
		return 0
	}
	return float64(s.NoOverlapExecutionTime()) / float64(s.ExecutionTime)
}
