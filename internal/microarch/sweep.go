package microarch

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"speedofdata/internal/engine"
	"speedofdata/internal/quantum"
)

// CurvePoint is one point of a Figure 15 curve: execution time as a function
// of total ancilla factory area for one microarchitecture.
type CurvePoint struct {
	// AreaMacroblocks is the ancilla factory area (x axis).
	AreaMacroblocks float64
	// ExecutionTimeMs is the simulated execution time (y axis).
	ExecutionTimeMs float64
	// Scale is the swept resource count (generators per qubit / per slot, or
	// shared factories) that produced the point.
	Scale int
	// AncillaStallMs is the total time gates waited on encoded ancillae.
	AncillaStallMs float64
	// BufferHighWater is the peak buffered ancilla level (finite-buffer
	// configurations only; zero under the fluid infinite-buffer model).
	BufferHighWater float64
}

// Curve is one architecture's execution-time/area trade-off curve.
type Curve struct {
	Arch   Architecture
	Points []CurvePoint
}

// SweepEngine simulates the circuit at each resource scale for one
// architecture and returns the resulting curve, one engine job per scale (a
// nil engine runs them sequentially).  For QLA/GQLA and CQLA/GCQLA the scale
// is the number of generators per data qubit (or cache slot); for
// Fully-Multiplexed it is the number of shared pipelined factories.
func SweepEngine(ctx context.Context, eng *engine.Engine, c *quantum.Circuit, base Config, scales []int) (Curve, error) {
	if len(scales) == 0 {
		return Curve{}, fmt.Errorf("microarch: no scales to sweep")
	}
	points, err := engine.Run(ctx, eng, scaleJobs(c, base, scales))
	if err != nil {
		return Curve{}, err
	}
	curve := Curve{Arch: base.Arch, Points: points}
	sortCurve(&curve)
	return curve, nil
}

// scaleJobs expands one architecture's scale list into engine jobs, each
// simulating the circuit at one resource scale.
func scaleJobs(c *quantum.Circuit, base Config, scales []int) []engine.Job[CurvePoint] {
	fp := c.Fingerprint()
	jobs := make([]engine.Job[CurvePoint], len(scales))
	for i, s := range scales {
		s := s
		jobs[i] = engine.Job[CurvePoint]{
			Key: engine.Fingerprint("microarch.simulate", fp, base, s),
			Run: func(context.Context, *rand.Rand) (CurvePoint, error) {
				if s <= 0 {
					return CurvePoint{}, fmt.Errorf("microarch: non-positive scale %d", s)
				}
				cfg := base
				switch base.Arch {
				case QLA, GQLA, CQLA, GCQLA:
					cfg.GeneratorsPerQubit = s
				case FullyMultiplexed:
					cfg.SharedFactories = s
				}
				res, err := Simulate(c, cfg)
				if err != nil {
					return CurvePoint{}, err
				}
				return CurvePoint{
					AreaMacroblocks: float64(res.AncillaFactoryArea),
					ExecutionTimeMs: res.ExecutionTimeMs(),
					Scale:           s,
					AncillaStallMs:  res.AncillaStallTime.Milliseconds(),
					BufferHighWater: res.BufferHighWater,
				}, nil
			},
		}
	}
	return jobs
}

func sortCurve(curve *Curve) {
	sort.Slice(curve.Points, func(i, j int) bool {
		return curve.Points[i].AreaMacroblocks < curve.Points[j].AreaMacroblocks
	})
}

// DefaultScales returns the resource sweep used for Figure 15: powers of two
// from one generator (or factory) up to the given maximum.
func DefaultScales(max int) []int {
	if max < 1 {
		max = 1
	}
	var scales []int
	for s := 1; s <= max; s *= 2 {
		scales = append(scales, s)
	}
	return scales
}

// DefaultMaxScale is the standard upper bound of the Figure 15 resource
// sweep: generators (or shared factories) are swept over powers of two up to
// this count.  The qsd CLI (-max-scale) and the HTTP API (?scale=) both
// default to it.
const DefaultMaxScale = 64

// ScalesFor returns the resource scales one architecture contributes to the
// Figure 15 grid: powers of two up to maxScale, except QLA and CQLA, whose
// original proposals fix one serial generator per site and so appear as
// single points.  The grid benches and the event/closed-form parity tests
// share this rule with Figure15Engine.
func ScalesFor(arch Architecture, maxScale int) []int {
	if arch == QLA || arch == CQLA {
		return []int{1}
	}
	return DefaultScales(maxScale)
}

// Figure15Config bundles the per-architecture settings used to regenerate
// Figure 15 for one benchmark.
type Figure15Config struct {
	// Base is the shared configuration (latency, movement, cache size, π/8
	// accounting); the architecture and resource counts are overridden per
	// curve.
	Base Config
	// MaxScale bounds the resource sweep (default DefaultMaxScale).
	MaxScale int
	// Archs restricts the comparison to a subset of organisations (nil = all
	// of Architectures()).  Job keys depend only on (circuit, config, scale),
	// so a filtered run shares its simulations with the full grid through the
	// engine cache.
	Archs []Architecture
}

// Figure15Engine produces the execution-time/area curves of Figure 15 for
// one benchmark circuit: QLA and CQLA as proposed (single generator per
// site), their generalisations GQLA and GCQLA swept over generators per
// site, and Fully-Multiplexed swept over shared factories.  The whole
// architecture × scale grid is flattened into one engine job batch so every
// simulation runs concurrently, then the points are regrouped into
// per-architecture curves; results are identical for any worker count (a nil
// engine runs the jobs sequentially).
func Figure15Engine(ctx context.Context, eng *engine.Engine, c *quantum.Circuit, cfg Figure15Config) (map[Architecture]Curve, error) {
	maxScale := cfg.MaxScale
	if maxScale <= 0 {
		maxScale = DefaultMaxScale
	}
	archs := cfg.Archs
	if len(archs) == 0 {
		archs = Architectures()
	}
	var jobs []engine.Job[CurvePoint]
	var jobArch []Architecture
	for _, arch := range archs {
		base := cfg.Base
		base.Arch = arch
		for _, job := range scaleJobs(c, base, ScalesFor(arch, maxScale)) {
			jobs = append(jobs, job)
			jobArch = append(jobArch, arch)
		}
	}
	points, err := engine.Run(ctx, eng, jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[Architecture]Curve)
	for i, p := range points {
		arch := jobArch[i]
		curve := out[arch]
		curve.Arch = arch
		curve.Points = append(curve.Points, p)
		out[arch] = curve
	}
	for arch, curve := range out {
		sortCurve(&curve)
		out[arch] = curve
	}
	return out, nil
}

// PlateauTimeMs returns the best (smallest) execution time on a curve, i.e.
// the plateau reached once ancilla generation stops being the bottleneck.
func PlateauTimeMs(curve Curve) float64 {
	best := 0.0
	for i, p := range curve.Points {
		if i == 0 || p.ExecutionTimeMs < best {
			best = p.ExecutionTimeMs
		}
	}
	return best
}

// AreaToReach returns the smallest area on the curve whose execution time is
// within the given factor of the curve's plateau, or the largest area if the
// curve never gets that close.
func AreaToReach(curve Curve, factor float64) float64 {
	plateau := PlateauTimeMs(curve)
	for _, p := range curve.Points {
		if p.ExecutionTimeMs <= plateau*factor {
			return p.AreaMacroblocks
		}
	}
	if len(curve.Points) == 0 {
		return 0
	}
	return curve.Points[len(curve.Points)-1].AreaMacroblocks
}
