package network

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"speedofdata/internal/engine"
	"speedofdata/internal/iontrap"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
)

// ErrPartitioned reports that link failures disconnected the mesh: some
// routed teleport has no healthy path between its endpoints.  Callers match
// it with errors.Is; the HTTP server surfaces it as a 400 (the requested
// fault plan asks for an unroutable machine, it is not a server fault).
var ErrPartitioned = errors.New("network: mesh partitioned by link failures")

// LinkFault is one injected interconnect fault: a directed link either dies
// outright or has its EPR-pair generation rate degraded.
type LinkFault struct {
	// Link is the directed channel the fault strikes.
	Link Link
	// At is the kernel timestamp (microseconds into the replay) at which
	// the fault strikes; zero applies it before the run starts (a static
	// fault).  Scheduled faults fire as ordinary kernel events, so their
	// interleaving with the workload is deterministic.
	At iontrap.Microseconds
	// Dead kills the link: its generator halts, buffered pairs are
	// stranded, and every route is re-resolved around it.  Teleports
	// already granted a pair on the link still cross (the last pair out);
	// teleports queued on it re-route.
	Dead bool
	// RateFactor in (0, 1) scales the link's EPR generation rate for a
	// degradation fault (ignored when Dead).
	RateFactor float64
}

// FaultPlan is a deterministic set of link faults injected into one replay
// through Config.Faults.  The empty plan is the pristine mesh and replays
// byte-identically to a config without one.
type FaultPlan []LinkFault

// Validate rejects plans no replay on the given topology can apply.
func (p FaultPlan) Validate(topo Topology) error {
	for i, f := range p {
		from, to := f.Link.From, f.Link.To
		n := topo.TileCount()
		if from < 0 || from >= n || to < 0 || to >= n || topo.HopDistance(from, to) != 1 {
			return fmt.Errorf("network: fault %d targets %s, not a link of the %dx%d mesh (%d tiles)",
				i, f.Link, topo.Cols, topo.Rows, n)
		}
		if f.At < 0 || math.IsInf(float64(f.At), 0) || math.IsNaN(float64(f.At)) {
			return fmt.Errorf("network: fault %d on %s at non-physical time %v", i, f.Link, f.At)
		}
		if !f.Dead && !(f.RateFactor > 0 && f.RateFactor < 1) {
			return fmt.Errorf("network: fault %d on %s: degradation rate factor %v must be in (0, 1)",
				i, f.Link, f.RateFactor)
		}
	}
	return nil
}

// FaultStats is the fault decomposition of a replay, alongside the existing
// compute / factory-starved / network-blocked split: how much routing and
// waiting the injected faults caused.  A zero-fault replay reports the zero
// value.
type FaultStats struct {
	// FailedLinks and DegradedLinks count the directed links each fault
	// kind actually struck during the run.
	FailedLinks   int
	DegradedLinks int
	// Reroutes counts teleports launched on a route that deviates from the
	// fault-free dimension-order choice.
	Reroutes int
	// InFlightReroutes counts teleports re-resolved mid-flight: they were
	// queued on (or headed for) a link when it died and found a new path
	// from where they stood.
	InFlightReroutes int
	// DetourHops is the extra link traversals beyond the Manhattan
	// distance, summed over rerouted teleports.
	DetourHops int
	// DegradedWaitUs is the EPR-pair queueing time accumulated at links
	// while they were degraded — the "time lost to degradation" share of
	// the network-blocked total.
	DegradedWaitUs float64
}

// BisectionBoundary returns the two directed links of the canonical
// mesh-bisection boundary — the tile boundary crossing the vertical cut
// between the middle columns at row 0 (the horizontal cut on a 1-column
// mesh) — and false when the mesh has no links.  Killing both directions
// models one physical link failing; the netfault scenario uses it as the
// worst natural single failure.
func BisectionBoundary(t Topology) ([2]Link, bool) {
	if t.TileCount() < 2 {
		return [2]Link{}, false
	}
	if t.Cols > 1 {
		cx := (t.Cols - 1) / 2
		a, b := t.Index(cx, 0), t.Index(cx+1, 0)
		return [2]Link{{From: a, To: b}, {From: b, To: a}}, true
	}
	cy := (t.Rows - 1) / 2
	a, b := t.Index(0, cy), t.Index(0, cy+1)
	return [2]Link{{From: a, To: b}, {From: b, To: a}}, true
}

// Boundaries returns the undirected tile boundaries of the mesh (each pair
// of directed links collapsed to its From < To representative) in the stable
// Links order.  The netdegrade scenario kills them in this order.
func Boundaries(t Topology) []Link {
	var out []Link
	for _, l := range t.Links() {
		if l.From < l.To {
			out = append(out, l)
		}
	}
	return out
}

// DegradeAllLinks builds a static plan degrading every link of the mesh to
// factor times its EPR rate — the "25%-degraded links" arm of netfault is
// DegradeAllLinks(topo, 0.75).
func DegradeAllLinks(t Topology, factor float64) FaultPlan {
	links := t.Links()
	plan := make(FaultPlan, len(links))
	for i, l := range links {
		plan[i] = LinkFault{Link: l, RateFactor: factor}
	}
	return plan
}

// KillBoundaries builds a static plan killing the first n undirected
// boundaries (both directions each) in Boundaries order.
func KillBoundaries(t Topology, n int) FaultPlan {
	var plan FaultPlan
	for i, b := range Boundaries(t) {
		if i >= n {
			break
		}
		plan = append(plan,
			LinkFault{Link: b, Dead: true},
			LinkFault{Link: Link{From: b.To, To: b.From}, Dead: true})
	}
	return plan
}

// FaultMode names one arm of the netfault comparison.
type FaultMode int

const (
	// FaultNone is the pristine mesh.
	FaultNone FaultMode = iota
	// FaultDegraded degrades every link to DegradeRateFactor of its rate.
	FaultDegraded
	// FaultDeadLink kills both directions of the bisection boundary.
	FaultDeadLink
)

// DegradeRateFactor is the per-link EPR-rate multiplier of the netfault
// degraded arm: every link runs at 75% (25% degraded).
const DegradeRateFactor = 0.75

func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultDegraded:
		return "degraded-25%"
	case FaultDeadLink:
		return "dead-bisection-link"
	}
	return fmt.Sprintf("FaultMode(%d)", int(m))
}

// FaultModes returns the netfault arms in makespan order: each adds
// interconnect damage over the last.
func FaultModes() []FaultMode { return []FaultMode{FaultNone, FaultDegraded, FaultDeadLink} }

// FaultPlanFor builds the static plan of one netfault arm on the given mesh.
func FaultPlanFor(mode FaultMode, topo Topology) FaultPlan {
	switch mode {
	case FaultDegraded:
		return DegradeAllLinks(topo, DegradeRateFactor)
	case FaultDeadLink:
		boundary, ok := BisectionBoundary(topo)
		if !ok {
			return nil
		}
		return FaultPlan{
			{Link: boundary[0], Dead: true},
			{Link: boundary[1], Dead: true},
		}
	}
	return nil
}

// FaultSweepPoint is one cell of the netfault grid: a benchmark replayed
// under one fault mode at one link-bandwidth factor.
type FaultSweepPoint struct {
	// Mode names the fault arm (FaultMode.String).
	Mode string
	// LinkFactor scales the demand-matched link EPR bandwidth.
	LinkFactor float64
	// LinkEPRPerMs is the effective healthy-link bandwidth.
	LinkEPRPerMs float64
	// MatchedLinkEPRPerMs is the Section 6 balance-point estimate.
	MatchedLinkEPRPerMs float64
	// ExecutionTimeMs is the replay makespan.
	ExecutionTimeMs float64
	// NetworkBlockedMs is the interconnect share of the makespan.
	NetworkBlockedMs float64
	// AncillaWaitMs is the factory-starved share.
	AncillaWaitMs float64
	// Teleports counts routed operand movements.
	Teleports int
	// Reroutes, InFlightReroutes, DetourHops and DegradedWaitMs are the
	// fault decomposition (FaultStats).
	Reroutes         int
	InFlightReroutes int
	DetourHops       int
	DegradedWaitMs   float64
	// FailedLinks and DegradedLinks count the links the plan struck.
	FailedLinks   int
	DegradedLinks int
	// Events is the kernel event count.
	Events int
}

// FaultSweepConfig parameterises the netfault grid.
type FaultSweepConfig struct {
	// Latency supplies gate and QEC timings.
	Latency schedule.LatencyModel
	// ZeroPerMs and Pi8PerMs provision the planned mesh's factories.
	ZeroPerMs, Pi8PerMs float64
	// LinkBufferPairs bounds every link's EPR channel buffer (<= 0
	// unbounded).
	LinkBufferPairs float64
	// Tiles is the mesh size (the machine is planned for exactly this
	// many tiles, like netcontention).
	Tiles int
	// LinkFactors scale the demand-matched bandwidth (use
	// DefaultFaultLinkFactors).
	LinkFactors []float64
}

// DefaultFaultLinkFactors sweep the link bandwidth around the Section 6
// balance point: starved, matched, over-provisioned.
func DefaultFaultLinkFactors() []float64 { return []float64{0.5, 1, 2} }

// FaultSweepEngine replays the circuit at every (fault mode, link factor)
// cell of the netfault grid through the experiment engine — the Section 6
// question under damage: does the balance point survive a dead link?  A mesh
// the dead-link arm disconnects (a 2-tile mesh has only the bisection
// boundary) returns ErrPartitioned.
func FaultSweepEngine(ctx context.Context, eng *engine.Engine, c *quantum.Circuit, sc FaultSweepConfig) ([]FaultSweepPoint, error) {
	if sc.Tiles < 2 {
		return nil, fmt.Errorf("network: netfault needs at least 2 tiles, got %d (a 1-tile mesh has no links to fail)", sc.Tiles)
	}
	if len(sc.LinkFactors) == 0 {
		return nil, fmt.Errorf("network: netfault needs at least one link factor")
	}
	base, err := PlanConfig(sc.Latency, c.NumQubits, sc.Tiles, sc.ZeroPerMs, sc.Pi8PerMs)
	if err != nil {
		return nil, err
	}
	base.LinkBufferPairs = sc.LinkBufferPairs
	topo := NewTopology(len(base.Machine.Tiles))
	part, err := PartitionCircuit(c, topo.TileCount())
	if err != nil {
		return nil, err
	}
	base.Partitions = []Partition{part}
	matched := MatchedLinkEPRPerMs(c, sc.Latency, topo, part)
	ceiling := base.Machine.LinkEPRPerMs()
	var jobs []engine.Job[FaultSweepPoint]
	for _, mode := range FaultModes() {
		mode := mode
		plan := FaultPlanFor(mode, topo)
		for _, factor := range sc.LinkFactors {
			factor := factor
			jobs = append(jobs, engine.Job[FaultSweepPoint]{
				Key: engine.Fingerprint("network.faultsweep", part.Key, sc.Latency, sc.ZeroPerMs, sc.Pi8PerMs,
					sc.LinkBufferPairs, int(mode), DegradeRateFactor, factor),
				Run: func(context.Context, *rand.Rand) (FaultSweepPoint, error) {
					cfg := base
					cfg.Faults = plan
					cfg.LinkEPRPerMs = matched * factor
					// A degenerate matched rate (no cross-tile traffic) falls
					// back to the geometric ceiling; either way the perimeter
					// bounds the channel count.
					if !(cfg.LinkEPRPerMs > 0) || cfg.LinkEPRPerMs > ceiling {
						cfg.LinkEPRPerMs = ceiling
					}
					run, err := Replay(c, cfg)
					if err != nil {
						return FaultSweepPoint{}, err
					}
					r := run.Results[0]
					return FaultSweepPoint{
						Mode:                mode.String(),
						LinkFactor:          factor,
						LinkEPRPerMs:        cfg.LinkEPRPerMs,
						MatchedLinkEPRPerMs: matched,
						ExecutionTimeMs:     r.ExecutionTime.Milliseconds(),
						NetworkBlockedMs:    r.NetworkBlocked.Milliseconds(),
						AncillaWaitMs:       r.AncillaWait.Milliseconds(),
						Teleports:           r.Teleports,
						Reroutes:            run.Faults.Reroutes,
						InFlightReroutes:    run.Faults.InFlightReroutes,
						DetourHops:          run.Faults.DetourHops,
						DegradedWaitMs:      run.Faults.DegradedWaitUs / 1000.0,
						FailedLinks:         run.Faults.FailedLinks,
						DegradedLinks:       run.Faults.DegradedLinks,
						Events:              run.Events,
					}, nil
				},
			})
		}
	}
	return engine.Run(ctx, eng, jobs)
}

// DegradePoint is one row of the netdegrade sweep: the benchmark replayed at
// matched link bandwidth with the first Failures mesh boundaries dead.
type DegradePoint struct {
	// Failures is how many undirected boundaries were killed (both
	// directions each, in Boundaries order).
	Failures int
	// FailedLinks is the resulting directed dead-link count.
	FailedLinks int
	// Partitioned reports that the failures disconnected the routed
	// traffic; the remaining fields are zero.
	Partitioned bool
	// ExecutionTimeMs is the replay makespan.
	ExecutionTimeMs float64
	// NetworkBlockedMs is the interconnect share of the makespan.
	NetworkBlockedMs float64
	// Reroutes, InFlightReroutes and DetourHops are the fault
	// decomposition.
	Reroutes         int
	InFlightReroutes int
	DetourHops       int
	// MeanHops is the average one-way route length per teleport.
	MeanHops float64
	// Events is the kernel event count.
	Events int
}

// DegradeConfig parameterises the netdegrade sweep.
type DegradeConfig struct {
	// Latency supplies gate and QEC timings.
	Latency schedule.LatencyModel
	// ZeroPerMs and Pi8PerMs provision the planned mesh's factories.
	ZeroPerMs, Pi8PerMs float64
	// LinkBufferPairs bounds every link's EPR channel buffer.
	LinkBufferPairs float64
	// Tiles is the mesh size.
	Tiles int
	// MaxFailures bounds the boundary-failure count swept (capped at the
	// mesh's boundary count).
	MaxFailures int
}

// DegradeSweepEngine replays the circuit at matched link bandwidth while
// killing mesh boundaries one by one until MaxFailures (or the whole mesh)
// is gone: how much damage does the routed interconnect absorb before it
// partitions?  Rows past the partition point report Partitioned instead of
// failing the sweep.
func DegradeSweepEngine(ctx context.Context, eng *engine.Engine, c *quantum.Circuit, sc DegradeConfig) ([]DegradePoint, error) {
	if sc.Tiles < 2 {
		return nil, fmt.Errorf("network: netdegrade needs at least 2 tiles, got %d (a 1-tile mesh has no links to fail)", sc.Tiles)
	}
	if sc.MaxFailures < 0 {
		return nil, fmt.Errorf("network: negative failure bound %d", sc.MaxFailures)
	}
	base, err := PlanConfig(sc.Latency, c.NumQubits, sc.Tiles, sc.ZeroPerMs, sc.Pi8PerMs)
	if err != nil {
		return nil, err
	}
	base.LinkBufferPairs = sc.LinkBufferPairs
	topo := NewTopology(len(base.Machine.Tiles))
	part, err := PartitionCircuit(c, topo.TileCount())
	if err != nil {
		return nil, err
	}
	base.Partitions = []Partition{part}
	matched := MatchedLinkEPRPerMs(c, sc.Latency, topo, part)
	rate := matched
	if ceiling := base.Machine.LinkEPRPerMs(); !(rate > 0) || rate > ceiling {
		rate = ceiling
	}
	base.LinkEPRPerMs = rate
	failures := sc.MaxFailures
	if n := len(Boundaries(topo)); failures > n {
		failures = n
	}
	jobs := make([]engine.Job[DegradePoint], failures+1)
	for k := 0; k <= failures; k++ {
		k := k
		jobs[k] = engine.Job[DegradePoint]{
			Key: engine.Fingerprint("network.degrade", part.Key, sc.Latency, sc.ZeroPerMs, sc.Pi8PerMs,
				sc.LinkBufferPairs, k),
			Run: func(context.Context, *rand.Rand) (DegradePoint, error) {
				cfg := base
				cfg.Faults = KillBoundaries(topo, k)
				run, err := Replay(c, cfg)
				if errors.Is(err, ErrPartitioned) {
					return DegradePoint{Failures: k, FailedLinks: 2 * k, Partitioned: true}, nil
				}
				if err != nil {
					return DegradePoint{}, err
				}
				r := run.Results[0]
				meanHops := 0.0
				if r.Teleports > 0 {
					meanHops = float64(r.Hops) / float64(r.Teleports)
				}
				return DegradePoint{
					Failures:         k,
					FailedLinks:      run.Faults.FailedLinks,
					ExecutionTimeMs:  r.ExecutionTime.Milliseconds(),
					NetworkBlockedMs: r.NetworkBlocked.Milliseconds(),
					Reroutes:         run.Faults.Reroutes,
					InFlightReroutes: run.Faults.InFlightReroutes,
					DetourHops:       run.Faults.DetourHops,
					MeanHops:         meanHops,
					Events:           run.Events,
				}, nil
			},
		}
	}
	return engine.Run(ctx, eng, jobs)
}
