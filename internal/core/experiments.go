package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"speedofdata/internal/circuits"
	"speedofdata/internal/engine"
	"speedofdata/internal/factory"
	"speedofdata/internal/fowler"
	"speedofdata/internal/microarch"
	"speedofdata/internal/network"
	"speedofdata/internal/noise"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
	"speedofdata/internal/steane"
)

// Experiments bundles the options shared by every experiment runner.  Each
// method regenerates one table or figure from the paper's evaluation; the
// command-line tool and the benchmark harness are thin wrappers around it.
// All sweeps, grids and Monte Carlo runs are dispatched through the shared
// experiment engine, so one Experiments value fans its work across Engine's
// workers while producing output identical to a sequential run.
type Experiments struct {
	Options Options
	// Bits is the benchmark operand width (32 in the paper).
	Bits int
	// Engine executes every experiment's job batches.  nil runs
	// sequentially without caching; use engine.New(n) for an n-worker
	// engine whose result cache is shared across experiments.
	Engine *engine.Engine
	// Ctx, when non-nil, bounds every experiment method's engine batches:
	// cancelling it stops in-flight sweeps between jobs.  nil means
	// context.Background().  The HTTP server sets it to the request context
	// on its per-request copy, so a disconnected client stops paying for
	// unread work.
	Ctx context.Context
}

// ctx returns the context bounding the experiment runs.
func (e Experiments) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// NewExperiments returns a sequential experiment runner with the paper's
// parameters.
func NewExperiments() Experiments {
	return Experiments{Options: DefaultOptions(), Bits: 32, Engine: engine.Sequential()}
}

// generate produces the given benchmarks at the configured width, one
// engine job per benchmark, so every experiment on one engine shares each
// circuit (and the DAG and fingerprint it memoises).
func (e Experiments) generate(ctx context.Context, bs ...circuits.Benchmark) ([]*quantum.Circuit, error) {
	jobs := make([]engine.Job[*quantum.Circuit], len(bs))
	for i, b := range bs {
		jobs[i] = engine.Job[*quantum.Circuit]{
			Key: engine.Fingerprint("circuits.generate", b, e.Bits),
			Run: func(context.Context, *rand.Rand) (*quantum.Circuit, error) {
				return circuits.Generate(b, e.Bits)
			},
		}
	}
	return engine.Run(ctx, e.Engine, jobs)
}

// Table2And3 characterises the three benchmarks (Tables 2 and 3), one engine
// job per benchmark.
func (e Experiments) Table2And3() ([]schedule.Characterization, error) {
	ctx := e.ctx()
	cs, err := e.generate(ctx, circuits.Benchmarks()...)
	if err != nil {
		return nil, err
	}
	out, err := schedule.CharacterizeAll(ctx, e.Engine, cs, e.Options.Latency)
	if err != nil {
		return nil, err
	}
	for i, b := range circuits.Benchmarks() {
		out[i].Name = fmt.Sprintf("%d-Bit %s", e.Bits, b)
	}
	return out, nil
}

// Table5Rows describes the pipelined zero factory's functional units under
// the configured technology (Table 5).
type Table5Row struct {
	Name            string
	SymbolicLatency string
	LatencyUs       float64
	Stages          int
	InBWPerMs       float64
	OutBWPerMs      float64
	Area            float64
}

// Table5 returns the zero-factory functional unit characteristics.
func (e Experiments) Table5() []Table5Row {
	return unitRows(factory.ZeroFactoryUnits(), e)
}

// Table7 returns the π/8-factory stage characteristics.
func (e Experiments) Table7() []Table5Row {
	return unitRows(factory.Pi8FactoryUnits(), e)
}

func unitRows(units []factory.FunctionalUnit, e Experiments) []Table5Row {
	rows := make([]Table5Row, 0, len(units))
	for _, u := range units {
		rows = append(rows, Table5Row{
			Name:            u.Name,
			SymbolicLatency: u.Latency.String(),
			LatencyUs:       float64(u.LatencyUs(e.Options.Tech)),
			Stages:          u.InternalStages,
			InBWPerMs:       u.InBandwidth(e.Options.Tech),
			OutBWPerMs:      u.OutBandwidth(e.Options.Tech),
			Area:            float64(u.Area),
		})
	}
	return rows
}

// FactoryDesigns returns the sized zero and π/8 factories (Tables 6 and 8,
// Sections 4.4.1-4.4.2) plus the simple factory of Section 4.3.
func (e Experiments) FactoryDesigns() (simple factory.SimpleZeroFactory, zero, pi8 factory.Design) {
	return factory.SimpleZeroFactory{Tech: e.Options.Tech},
		factory.PipelinedZeroFactory(e.Options.Tech),
		factory.Pi8Factory(e.Options.Tech)
}

// Table9 returns the per-benchmark chip area breakdown.
func (e Experiments) Table9() ([]AreaBreakdown, error) {
	analyses, err := AnalyzeBenchmarksEngine(e.ctx(), e.Engine, e.Bits, e.Options, circuits.Benchmarks()...)
	if err != nil {
		return nil, err
	}
	out := make([]AreaBreakdown, 0, len(analyses))
	for i, a := range analyses {
		b := a.Breakdown
		b.Name = fmt.Sprintf("%d-Bit %s", e.Bits, circuits.Benchmarks()[i])
		out = append(out, b)
	}
	return out, nil
}

// PrepErrorResult is one Figure 4 data point: the estimated error rates of an
// encoded-zero preparation variant.
type PrepErrorResult struct {
	Name       string
	PaperRate  float64
	FirstOrder noise.Estimate
	MonteCarlo noise.Estimate
	Ops        steane.Counts
	// Converged reports whether a sequential-sampling run (Figure4Target)
	// met its precision target before hitting the trial cap.  Fixed-budget
	// runs leave it false.
	Converged bool
}

// figure4Variants are Figure 4's encoded-zero preparation variants in row
// order, each with the uncorrectable rate the paper reports for it.
var figure4Variants = []struct {
	name      string
	paperRate float64
}{
	{"basic", 1.8e-3},
	{"verify-only", 3.7e-4},
	{"correct-only", 1.1e-3},
	{"verify-and-correct", 2.9e-5},
}

// figure4 evaluates every Figure 4 variant under the paper's error model,
// one engine job per variant whose Monte Carlo trials fan out further as
// chunk jobs on the same engine.  key names a variant's job; estimate runs
// the variant's Monte Carlo and reports whether a precision target was met.
func (e Experiments) figure4(key func(name string, model noise.Model) string,
	estimate func(ctx context.Context, sim *noise.Simulator, name, key string) (noise.Estimate, bool, error)) ([]PrepErrorResult, error) {
	code := steane.NewCode()
	model := noise.DefaultModel()
	protocols := steane.StandardProtocols(code)
	jobs := make([]engine.Job[PrepErrorResult], len(figure4Variants))
	for i, v := range figure4Variants {
		p := protocols[v.name]
		k := key(v.name, model)
		jobs[i] = engine.Job[PrepErrorResult]{
			Key: k,
			Run: func(ctx context.Context, _ *rand.Rand) (PrepErrorResult, error) {
				sim, err := noise.NewSimulator(code, p, model)
				if err != nil {
					return PrepErrorResult{}, err
				}
				mc, converged, err := estimate(ctx, sim, v.name, k)
				if err != nil {
					return PrepErrorResult{}, err
				}
				return PrepErrorResult{
					Name:       v.name,
					PaperRate:  v.paperRate,
					FirstOrder: sim.FirstOrder(),
					MonteCarlo: mc,
					Ops:        p.CountOps(),
					Converged:  converged,
				}, nil
			},
		}
	}
	return engine.Run(e.ctx(), e.Engine, jobs)
}

// Figure4Sampled evaluates the four encoded-zero preparation circuits under
// the paper's error model.  trials controls the Monte Carlo effort and
// sampling its executor.  Dense (the default everywhere) draws per error
// location and is byte-identical across releases for a seed; sparse and
// bit-sliced are statistically equivalent and much faster at physical error
// rates, behind the qsd -sparse / -bitsliced flags and the matching HTTP
// parameters.  No two modes share cache keys.
func (e Experiments) Figure4Sampled(trials int, seed int64, sampling noise.Sampling) ([]PrepErrorResult, error) {
	return e.figure4(func(name string, model noise.Model) string {
		if sampling != noise.SamplingDense {
			// Dense keys stay exactly as they always were (they seed the
			// chunk RNG streams); sparse and bitsliced each get their own
			// key space, named by the sampling mode.
			return engine.Fingerprint("core.figure4", name, model, trials, seed, sampling)
		}
		return engine.Fingerprint("core.figure4", name, model, trials, seed)
	}, func(ctx context.Context, sim *noise.Simulator, _, _ string) (noise.Estimate, bool, error) {
		sim.Sampling = sampling
		mc, err := sim.MonteCarloEngine(ctx, e.Engine, trials, seed)
		return mc, false, err
	})
}

// PartialEstimate is one refining estimate of a sequential-sampling Figure 4
// run, published through the engine's Partial callback (and streamed to SSE
// subscribers by the HTTP server as "partial" events).
type PartialEstimate struct {
	Experiment string `json:"experiment"`
	Protocol   string `json:"protocol"`
	// Trials is the cumulative trial count behind this estimate; later
	// partials of one protocol always carry strictly more trials.
	Trials            int     `json:"trials"`
	UncorrectableRate float64 `json:"uncorrectable_rate"`
	// RelativeHalfWidth is the Wilson relative confidence-interval
	// half-width at the requested confidence (1.0 until the first
	// uncorrectable outcome is observed).
	RelativeHalfWidth float64 `json:"relative_half_width"`
	// Done marks the protocol's terminal estimate (converged or capped).
	Done bool `json:"done"`
}

// Figure4Target is Figure4Sampled with sequential sampling: each preparation
// variant runs bit-sliced Monte Carlo until the uncorrectable rate's Wilson
// interval reaches the target relative half-width epsilon at the given
// confidence (0 = noise.DefaultConfidence), capped at maxTrials.  Refining
// partial estimates stream through the engine's Partial callback.
//
// The per-protocol trial counts are data-dependent, so results are keyed by
// the full target (epsilon, confidence, cap); the underlying Monte Carlo
// chunks still share cache entries with fixed-trial bit-sliced runs.
func (e Experiments) Figure4Target(epsilon, confidence float64, maxTrials int, seed int64) ([]PrepErrorResult, error) {
	return e.figure4(func(name string, model noise.Model) string {
		return engine.Fingerprint("core.figure4", name, model, maxTrials, seed, "ci", epsilon, confidence)
	}, func(ctx context.Context, sim *noise.Simulator, name, key string) (noise.Estimate, bool, error) {
		sim.Sampling = noise.SamplingBitSliced
		tgt := noise.Target{Epsilon: epsilon, Confidence: confidence, MaxTrials: maxTrials}
		return sim.MonteCarloTarget(ctx, e.Engine, tgt, seed, func(pe noise.Partial) {
			e.Engine.PublishPartial(key, pe.Seq, PartialEstimate{
				Experiment:        "fig4",
				Protocol:          name,
				Trials:            pe.Estimate.Trials,
				UncorrectableRate: pe.Estimate.UncorrectableRate,
				RelativeHalfWidth: pe.Relative,
				Done:              pe.Done,
			})
		})
	})
}

// Figure7 computes the ancilla demand profiles of the three benchmarks, one
// engine job per benchmark.
func (e Experiments) Figure7(buckets int) (map[string][]schedule.DemandPoint, error) {
	ctx := e.ctx()
	benchmarks := circuits.Benchmarks()
	jobs := make([]engine.Job[[]schedule.DemandPoint], len(benchmarks))
	for i, b := range benchmarks {
		b := b
		jobs[i] = engine.Job[[]schedule.DemandPoint]{
			Key: engine.Fingerprint("core.figure7", b, e.Bits, e.Options.Latency, buckets),
			Run: func(ctx context.Context, _ *rand.Rand) ([]schedule.DemandPoint, error) {
				cs, err := e.generate(ctx, b)
				if err != nil {
					return nil, err
				}
				return schedule.DemandProfile(cs[0], e.Options.Latency, buckets)
			},
		}
	}
	profiles, err := engine.Run(ctx, e.Engine, jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]schedule.DemandPoint, len(benchmarks))
	for i, b := range benchmarks {
		out[b.String()] = profiles[i]
	}
	return out, nil
}

// Figure8 computes execution time versus steady ancilla throughput for the
// three benchmarks.  Each benchmark is one engine job whose per-rate
// simulations fan out further on the same engine.
func (e Experiments) Figure8() (map[string][]schedule.SweepPoint, error) {
	ctx := e.ctx()
	benchmarks := circuits.Benchmarks()
	jobs := make([]engine.Job[[]schedule.SweepPoint], len(benchmarks))
	for i, b := range benchmarks {
		b := b
		jobs[i] = engine.Job[[]schedule.SweepPoint]{
			Key: engine.Fingerprint("core.figure8", b, e.Bits, e.Options.Latency),
			Run: func(ctx context.Context, _ *rand.Rand) ([]schedule.SweepPoint, error) {
				e := e
				e.Ctx = ctx
				c, ch, err := e.characterizedBenchmark(b)
				if err != nil {
					return nil, err
				}
				return schedule.ThroughputSweepEngine(ctx, e.Engine, c, e.Options.Latency,
					schedule.DefaultSweepRates(ch.ZeroBandwidthPerMs))
			},
		}
	}
	sweeps, err := engine.Run(ctx, e.Engine, jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]schedule.SweepPoint, len(benchmarks))
	for i, b := range benchmarks {
		out[b.String()] = sweeps[i]
	}
	return out, nil
}

// Figure15Buffered runs the microarchitecture comparison for one benchmark,
// fanning the architecture × scale grid across the engine's workers.  archs
// restricts the architectures (nil = all); simulation job keys are
// architecture-filter independent, so a filtered request (e.g. the HTTP
// API's ?arch=) shares its grid points with full runs through the engine
// cache.  Every ancilla source keeps at most bufferAncillae encoded zeros in
// flight (zero buffers infinitely, reproducing the closed-form grid
// exactly); curve points carry the stall and high-water metrics the closed
// form cannot see.
func (e Experiments) Figure15Buffered(b circuits.Benchmark, maxScale int, archs []microarch.Architecture, bufferAncillae float64) (map[microarch.Architecture]microarch.Curve, error) {
	c, ch, err := e.characterizedBenchmark(b)
	if err != nil {
		return nil, err
	}
	base := microarch.DefaultConfig(microarch.FullyMultiplexed)
	base.Latency = e.Options.Latency
	base.CacheSlots = 16
	base.Pi8BandwidthPerMs = ch.Pi8BandwidthPerMs
	base.BufferAncillae = bufferAncillae
	return microarch.Figure15Engine(e.ctx(), e.Engine, c,
		microarch.Figure15Config{Base: base, MaxScale: maxScale, Archs: archs})
}

// characterizedBenchmark generates one benchmark and its Table 2/3
// characterisation through the same engine jobs as Tables 2 and 3, so every
// scenario on one engine shares them.
func (e Experiments) characterizedBenchmark(b circuits.Benchmark) (*quantum.Circuit, schedule.Characterization, error) {
	ctx := e.ctx()
	cs, err := e.generate(ctx, b)
	if err != nil {
		return nil, schedule.Characterization{}, err
	}
	chs, err := schedule.CharacterizeAll(ctx, e.Engine, cs, e.Options.Latency)
	if err != nil {
		return nil, schedule.Characterization{}, err
	}
	return cs[0], chs[0], nil
}

// BufferSweep sweeps the ancilla buffer capacity for one benchmark on one
// architecture, with the generation resources matched to the benchmark's
// average demand so the buffer — not raw bandwidth — is the variable under
// test.  It returns one result per capacity of DefaultBufferCaps, in order,
// ending on the infinite-buffer reference.  When Figure 15's grid has a cell
// of the same architecture at the matched resource count, that reference is
// the cell, and the two share it through the engine cache.
func (e Experiments) BufferSweep(b circuits.Benchmark, arch microarch.Architecture) ([]microarch.Result, error) {
	c, ch, err := e.characterizedBenchmark(b)
	if err != nil {
		return nil, err
	}
	base := microarch.DefaultConfig(arch)
	base.Latency = e.Options.Latency
	base.Pi8BandwidthPerMs = ch.Pi8BandwidthPerMs
	// Match the aggregate generation rate to the benchmark's average demand:
	// shared pipelined factories for Fully-Multiplexed, replicated simple
	// generators per site for the generator-based organisations.
	switch arch {
	case microarch.FullyMultiplexed:
		pipe := factory.PipelinedZeroFactory(e.Options.Tech)
		if n := pipe.CountForBandwidth(ch.ZeroBandwidthPerMs); n > base.SharedFactories {
			base.SharedFactories = n
		}
	default:
		perGen := factory.SimpleZeroFactory{Tech: e.Options.Tech}.ThroughputPerMs()
		sites := c.NumQubits
		if arch == microarch.CQLA || arch == microarch.GCQLA {
			sites = base.CacheSlots
		}
		if perGen > 0 && sites > 0 {
			if n := int(math.Ceil(ch.ZeroBandwidthPerMs / (perGen * float64(sites)))); n > base.GeneratorsPerQubit {
				base.GeneratorsPerQubit = n
			}
		}
	}
	caps := microarch.DefaultBufferCaps()
	cfgs := make([]microarch.Config, len(caps))
	for i, cap := range caps {
		cfgs[i] = base
		cfgs[i].BufferAncillae = cap
	}
	return microarch.Sweep(e.ctx(), e.Engine, c, cfgs)
}

// ContentionLevel is one shared-supply operating point of the co-scheduling
// scenario: every benchmark replayed concurrently against one factory bank.
type ContentionLevel struct {
	// DemandFraction is the supply rate as a fraction of the benchmarks'
	// aggregate average zero-ancilla demand.
	DemandFraction float64
	// Supply is the configured shared supply.
	Supply schedule.Supply
	// Run holds the per-benchmark results and the shared-buffer statistics.
	Run schedule.ReplayRun
}

// DefaultContentionFractions are the supply levels of the contention
// scenario, as fractions of the aggregate average demand.
var DefaultContentionFractions = []float64{0.25, 0.5, 1, 2}

// Contention co-schedules the paper's three benchmarks against one shared
// encoded-zero supply at several provisioning levels, one engine job per
// level.  bufferAncillae bounds the supply's output buffer (zero =
// infinite).  Even at 100% of the aggregate average demand the benchmarks
// interfere: demand is bursty, and a neighbour's burst steals headroom.
func (e Experiments) Contention(bufferAncillae float64) ([]ContentionLevel, error) {
	ctx := e.ctx()
	cs, err := e.generate(ctx, circuits.Benchmarks()...)
	if err != nil {
		return nil, err
	}
	chs, err := schedule.CharacterizeAll(ctx, e.Engine, cs, e.Options.Latency)
	if err != nil {
		return nil, err
	}
	demand := 0.0
	for _, ch := range chs {
		demand += ch.ZeroBandwidthPerMs
	}
	m := e.Options.Latency
	jobs := make([]engine.Job[ContentionLevel], len(DefaultContentionFractions))
	for i, frac := range DefaultContentionFractions {
		frac := frac
		supply := schedule.Supply{RatePerMs: demand * frac, BufferAncillae: bufferAncillae}
		jobs[i] = engine.Job[ContentionLevel]{
			Key: engine.Fingerprint("core.contention", e.Bits, m, supply),
			Run: func(context.Context, *rand.Rand) (ContentionLevel, error) {
				run, err := schedule.ReplayShared(cs, m, supply)
				if err != nil {
					return ContentionLevel{}, err
				}
				return ContentionLevel{DemandFraction: frac, Supply: supply, Run: run}, nil
			},
		}
	}
	return engine.Run(ctx, e.Engine, jobs)
}

// NetSupplyHeadroom over-provisions the zero-factory demand of the network
// scenarios so the interconnect — not ancilla generation — is the binding
// constraint under a link-bandwidth sweep.
const NetSupplyHeadroom = 2

// netSweepFactors are the link-bandwidth scalings of the netsweep grid, as
// multiples of the demand-matched rate: from a starved interconnect to an
// over-provisioned one.
var netSweepFactors = []float64{0.25, 0.5, 1, 2, 4}

// planMesh plans the mesh of at most tiles tiles that one benchmark replays
// on, its factories provisioned from the benchmark's characterization with
// NetSupplyHeadroom, and rejects a plan with no links: the scenario id needs
// the benchmark's qubits to fill at least two tiles.
func (e Experiments) planMesh(id string, c *quantum.Circuit, ch schedule.Characterization, tiles, linkBufferPairs int) (network.Mesh, error) {
	mesh, err := network.PlanMesh(e.Options.Latency, []*quantum.Circuit{c}, tiles,
		ch.ZeroBandwidthPerMs*NetSupplyHeadroom, ch.Pi8BandwidthPerMs, float64(linkBufferPairs))
	if err != nil {
		return network.Mesh{}, err
	}
	if mesh.Tiles() < 2 {
		return network.Mesh{}, requestErrorf("%s needs a mesh of at least 2 tiles, but the %s (%d qubits) plans %d on a bound of %d (a 1-tile mesh has no links)",
			id, c.Name, c.NumQubits, mesh.Tiles(), tiles)
	}
	return mesh, nil
}

// NetSweep runs the netsweep scenario for one benchmark: the circuit
// replayed on routed 2D meshes over a link-bandwidth × tile-count grid, one
// engine job per cell.  Tile counts are powers of two up to maxTiles, and
// stop at the first whose plan is no larger than the previous one.
// linkBufferPairs bounds each link's EPR channel buffer (0 = unbounded).
func (e Experiments) NetSweep(b circuits.Benchmark, maxTiles, linkBufferPairs int) ([]network.Point, error) {
	if maxTiles < 2 {
		return nil, requestErrorf("netsweep needs a tile bound of at least 2, got %d (a 1-tile mesh has no links to sweep)", maxTiles)
	}
	c, ch, err := e.characterizedBenchmark(b)
	if err != nil {
		return nil, err
	}
	var meshes []network.Mesh
	for tiles := 2; tiles <= maxTiles; tiles *= 2 {
		mesh, err := e.planMesh("netsweep", c, ch, tiles, linkBufferPairs)
		if err != nil {
			return nil, err
		}
		if n := len(meshes); n > 0 && mesh.Tiles() <= meshes[n-1].Tiles() {
			break
		}
		meshes = append(meshes, mesh)
	}
	cells := make([]network.Cell, len(netSweepFactors))
	for i, factor := range netSweepFactors {
		cells[i] = network.Cell{LinkFactor: factor}
	}
	return network.Sweep(e.ctx(), e.Engine, cells, meshes...)
}

// NetContentionLevel is one link-bandwidth operating point of the shared-mesh
// scenario: every benchmark replayed concurrently on one mesh.
type NetContentionLevel struct {
	// LinkFactor scales the aggregate demand-matched link EPR bandwidth
	// (network.Mesh.MatchedLinkEPRPerMs, summed over the benchmarks).
	LinkFactor float64
	// LinkEPRPerMs is the effective per-link bandwidth.
	LinkEPRPerMs float64
	// Run holds the per-benchmark results and the per-link statistics.
	Run network.ReplayRun
}

// DefaultNetContentionFactors are the link-bandwidth levels of the
// netcontention scenario, as multiples of the aggregate demand-matched
// bandwidth.
var DefaultNetContentionFactors = []float64{0.5, 1, 2}

// NetContention co-schedules the paper's three benchmarks on one shared
// teleportation mesh of at most tiles tiles at several link-bandwidth
// levels, one engine job per level.  Each circuit is partitioned across the
// same tiles, so cross-tile traffic from one benchmark queues behind
// another's at shared links even when the factories keep up.
func (e Experiments) NetContention(tiles, linkBufferPairs int) ([]NetContentionLevel, error) {
	ctx := e.ctx()
	cs, err := e.generate(ctx, circuits.Benchmarks()...)
	if err != nil {
		return nil, err
	}
	chs, err := schedule.CharacterizeAll(ctx, e.Engine, cs, e.Options.Latency)
	if err != nil {
		return nil, err
	}
	zeroDemand, pi8Demand := 0.0, 0.0
	for _, ch := range chs {
		zeroDemand += ch.ZeroBandwidthPerMs
		pi8Demand += ch.Pi8BandwidthPerMs
	}
	mesh, err := network.PlanMesh(e.Options.Latency, cs, tiles, zeroDemand*NetSupplyHeadroom, pi8Demand, float64(linkBufferPairs))
	if err != nil {
		return nil, err
	}
	jobs := make([]engine.Job[NetContentionLevel], len(DefaultNetContentionFactors))
	for i, factor := range DefaultNetContentionFactors {
		jobs[i] = engine.Job[NetContentionLevel]{
			Key: engine.Fingerprint("core.netcontention", e.Bits, e.Options.Latency, tiles, linkBufferPairs, factor),
			Run: func(context.Context, *rand.Rand) (NetContentionLevel, error) {
				cfg := mesh.Config
				cfg.LinkEPRPerMs = mesh.LinkRate(factor)
				run, err := network.ReplayShared(cs, cfg)
				if err != nil {
					return NetContentionLevel{}, err
				}
				return NetContentionLevel{LinkFactor: factor, LinkEPRPerMs: cfg.LinkEPRPerMs, Run: run}, nil
			},
		}
	}
	return engine.Run(ctx, e.Engine, jobs)
}

// netFaultFactors sweep the netfault link bandwidth around the Section 6
// balance point: starved, matched, over-provisioned.
var netFaultFactors = []float64{0.5, 1, 2}

// netFaultArms are the netfault arms in makespan order, each adding
// interconnect damage over the last: the pristine mesh, every link degraded
// to 75% of its EPR rate, and both directions of the bisection boundary
// dead.
var netFaultArms = []struct {
	name string
	plan func(network.Topology) network.FaultPlan
}{
	{"none", func(network.Topology) network.FaultPlan { return nil }},
	{"degraded-25%", func(t network.Topology) network.FaultPlan { return network.DegradeAllLinks(t, 0.75) }},
	{"dead-bisection-link", func(t network.Topology) network.FaultPlan {
		b, _ := network.BisectionBoundary(t)
		return network.FaultPlan{{Link: b[0], Dead: true}, {Link: b[1], Dead: true}}
	}},
}

// NetFault runs the netfault scenario for one benchmark: the circuit
// replayed on one routed mesh of at most tiles tiles across a (fault arm ×
// link bandwidth) grid, arm-major in netFaultArms order.  A mesh the
// dead-bisection arm disconnects (a 2-tile mesh has only the bisection
// boundary) fails with network.ErrPartitioned.  linkBufferPairs bounds each
// link's EPR channel buffer (0 = unbounded).
func (e Experiments) NetFault(b circuits.Benchmark, tiles, linkBufferPairs int) ([]network.Point, error) {
	c, ch, err := e.characterizedBenchmark(b)
	if err != nil {
		return nil, err
	}
	mesh, err := e.planMesh("netfault", c, ch, tiles, linkBufferPairs)
	if err != nil {
		return nil, err
	}
	var cells []network.Cell
	for _, arm := range netFaultArms {
		plan := arm.plan(mesh.Topology)
		for _, factor := range netFaultFactors {
			cells = append(cells, network.Cell{LinkFactor: factor, Faults: plan})
		}
	}
	points, err := network.Sweep(e.ctx(), e.Engine, cells, mesh)
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		if p.Partitioned {
			return nil, fmt.Errorf("the %s arm disconnects the %d-tile mesh: %w",
				netFaultArms[i/len(netFaultFactors)].name, p.Tiles, network.ErrPartitioned)
		}
	}
	return points, nil
}

// NetDegrade runs the netdegrade scenario for one benchmark: the circuit
// replayed at matched link bandwidth on a mesh of at most tiles tiles while
// mesh boundaries die one by one (network.KillBoundaries), row k with k
// dead, up to maxFailures; rows past the partition point report
// Partitioned.
func (e Experiments) NetDegrade(b circuits.Benchmark, tiles, linkBufferPairs, maxFailures int) ([]network.Point, error) {
	if maxFailures < 0 {
		return nil, requestErrorf("netdegrade needs a non-negative failure bound, got %d", maxFailures)
	}
	c, ch, err := e.characterizedBenchmark(b)
	if err != nil {
		return nil, err
	}
	mesh, err := e.planMesh("netdegrade", c, ch, tiles, linkBufferPairs)
	if err != nil {
		return nil, err
	}
	cells := make([]network.Cell, min(maxFailures, len(network.Boundaries(mesh.Topology)))+1)
	for k := range cells {
		cells[k] = network.Cell{LinkFactor: 1, Faults: network.KillBoundaries(mesh.Topology, k)}
	}
	return network.Sweep(e.ctx(), e.Engine, cells, mesh)
}

// FactoryPipelineHorizonMs is the simulated duration of the factory-sim
// scenario: long enough for both pipelines to reach their steady state.
const FactoryPipelineHorizonMs = 50

// FactoryPipelines runs the event-driven pipeline simulation of the zero and
// π/8 factories, one engine job each, with the given inter-stage buffer
// capacity in physical qubits (zero = unbounded crossbars).
func (e Experiments) FactoryPipelines(bufferQubits float64) (zero, pi8 factory.PipelineRun, err error) {
	designs := []factory.Design{factory.PipelinedZeroFactory(e.Options.Tech), factory.Pi8Factory(e.Options.Tech)}
	jobs := make([]engine.Job[factory.PipelineRun], len(designs))
	for i, d := range designs {
		d := d
		jobs[i] = engine.Job[factory.PipelineRun]{
			Key: engine.Fingerprint("core.factorysim", d.Name, e.Options.Tech, bufferQubits),
			Run: func(context.Context, *rand.Rand) (factory.PipelineRun, error) {
				return factory.SimulatePipeline(d, FactoryPipelineHorizonMs, bufferQubits)
			},
		}
	}
	runs, err := engine.Run(e.ctx(), e.Engine, jobs)
	if err != nil {
		return factory.PipelineRun{}, factory.PipelineRun{}, err
	}
	return runs[0], runs[1], nil
}

// FowlerResult summarises the Section 2.5 rotation-synthesis machinery.
type FowlerResult struct {
	// Sequences holds searched approximations for the first few π/2^k
	// rotations.
	Sequences []fowler.Sequence
	// TargetsK are the k values matching Sequences.
	TargetsK []int
	// Cascade holds the Figure 6 cascade statistics for a range of k.
	Cascade []fowler.CascadeStats
	// LengthAt1em4 is the modelled H/T sequence length at 1e-4 precision.
	LengthAt1em4 int
}

// Fowler runs the rotation-synthesis experiment (Section 2.5, Figure 6).
// The per-k sequence searches and cascade evaluations fan out as engine
// jobs (each search builds its own Searcher, so jobs are independent).
func (e Experiments) Fowler(maxGates int) (FowlerResult, error) {
	ctx := e.ctx()
	var res FowlerResult
	var searchJobs []engine.Job[fowler.Sequence]
	for k := 3; k <= 6; k++ {
		k := k
		res.TargetsK = append(res.TargetsK, k)
		searchJobs = append(searchJobs, engine.Job[fowler.Sequence]{
			Key: engine.Fingerprint("fowler.search", k, maxGates),
			Run: func(context.Context, *rand.Rand) (fowler.Sequence, error) {
				seq, _ := fowler.NewSearcher(maxGates).ApproximateRz(k, 1e-9)
				return seq, nil
			},
		})
	}
	cascadeKs := []int{3, 4, 6, 8, 16, 32}
	cascadeJobs := make([]engine.Job[fowler.CascadeStats], len(cascadeKs))
	for i, k := range cascadeKs {
		k := k
		cascadeJobs[i] = engine.Job[fowler.CascadeStats]{
			Key: engine.Fingerprint("fowler.cascade", k),
			Run: func(context.Context, *rand.Rand) (fowler.CascadeStats, error) {
				return fowler.Cascade(k)
			},
		}
	}
	var err error
	if res.Sequences, err = engine.Run(ctx, e.Engine, searchJobs); err != nil {
		return FowlerResult{}, err
	}
	if res.Cascade, err = engine.Run(ctx, e.Engine, cascadeJobs); err != nil {
		return FowlerResult{}, err
	}
	res.LengthAt1em4 = fowler.DefaultLengthModel().Length(1e-4)
	return res, nil
}
