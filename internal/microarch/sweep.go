package microarch

import (
	"context"
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

// Sweep simulates the circuit under each configuration and returns one
// Result per configuration, in input order.  Each configuration is one
// engine job of kind microarch.simulate keyed by the circuit and the whole
// configuration, so every sweep that reaches an equal configuration (a
// Figure 15 grid cell, a buffer-capacity point) shares its simulation
// through the engine cache.  QLA and CQLA simulate exactly as GQLA and GCQLA
// at the same resources, so they are keyed and simulated as those, and
// Figure 15's scale-1 QLA and CQLA cells are its GQLA and GCQLA cells; each
// Result comes back under the architecture asked for.  Invalid
// configurations fail Config.Validate.
func Sweep(ctx context.Context, eng *engine.Engine, c *quantum.Circuit, cfgs []Config) ([]Result, error) {
	fp := c.Fingerprint()
	jobs := make([]engine.Job[Result], len(cfgs))
	for i, cfg := range cfgs {
		cfg.Arch = cfg.Arch.generalised()
		jobs[i] = engine.Job[Result]{
			Key: engine.Fingerprint("microarch.simulate", fp, cfg),
			Run: func(context.Context, *rand.Rand) (Result, error) { return Simulate(c, cfg) },
		}
	}
	results, err := engine.Run(ctx, eng, jobs)
	if err != nil {
		return nil, err
	}
	for i := range results {
		results[i].Arch = cfgs[i].Arch
	}
	return results, nil
}

// DefaultBufferCaps returns the standard buffer-capacity sweep: powers of two
// from one encoded ancilla up to 256, then the infinite-buffer reference
// (zero) that the finite points converge to.
func DefaultBufferCaps() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 0}
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
	// of Architectures()).  Sweep keys each cell by the circuit and its
	// config alone, so a filtered run shares its simulations with the full
	// grid through the engine cache.
	Archs []Architecture
}

// Figure15Engine produces the execution-time/area curves of Figure 15 for
// one benchmark circuit: QLA and CQLA as proposed (single generator per
// site), their generalisations GQLA and GCQLA swept over generators per
// site, and Fully-Multiplexed swept over shared factories.  The whole
// architecture × scale grid is one Sweep, so every simulation runs
// concurrently, then the results are regrouped into per-architecture
// curves; results are identical for any worker count (a nil engine runs the
// jobs sequentially).
func Figure15Engine(ctx context.Context, eng *engine.Engine, c *quantum.Circuit, cfg Figure15Config) (map[Architecture]Curve, error) {
	maxScale := cfg.MaxScale
	if maxScale <= 0 {
		maxScale = DefaultMaxScale
	}
	archs := cfg.Archs
	if len(archs) == 0 {
		archs = Architectures()
	}
	var cfgs []Config
	var scales []int
	for _, arch := range archs {
		for _, s := range ScalesFor(arch, maxScale) {
			g := cfg.Base
			g.Arch = arch
			if arch == FullyMultiplexed {
				g.SharedFactories = s
			} else {
				g.GeneratorsPerQubit = s
			}
			cfgs = append(cfgs, g)
			scales = append(scales, s)
		}
	}
	results, err := Sweep(ctx, eng, c, cfgs)
	if err != nil {
		return nil, err
	}
	out := make(map[Architecture]Curve)
	for i, r := range results {
		arch := cfgs[i].Arch
		curve := out[arch]
		curve.Arch = arch
		curve.Points = append(curve.Points, CurvePoint{
			AreaMacroblocks: float64(r.AncillaFactoryArea),
			ExecutionTimeMs: r.ExecutionTimeMs(),
			Scale:           scales[i],
			AncillaStallMs:  r.AncillaStallTime.Milliseconds(),
			BufferHighWater: r.BufferHighWater,
		})
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
