package network

import (
	"context"
	"fmt"
	"math/rand"

	"speedofdata/internal/engine"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
)

// SweepPoint is one cell of the link-bandwidth × tile-count grid of the
// netsweep scenario.
type SweepPoint struct {
	// Tiles is the actual tile count of the planned mesh (which may be
	// smaller than requested when the qubits divide unevenly).
	Tiles int
	// LinkFactor scales the demand-matched link EPR bandwidth
	// (MatchedLinkEPRPerMs): below 1 the interconnect is under-provisioned
	// for the circuit's data movement, above 1 over-provisioned.
	LinkFactor float64
	// LinkEPRPerMs is the effective per-link EPR-pair bandwidth, capped at
	// the perimeter-derived geometric ceiling (layout.Qalypso.LinkEPRPerMs).
	LinkEPRPerMs float64
	// MatchedLinkEPRPerMs is the estimated rate at which the link moves
	// data exactly as fast as computation demands it.
	MatchedLinkEPRPerMs float64
	// ExecutionTimeMs is the replay makespan.
	ExecutionTimeMs float64
	// SpeedOfDataMs is the circuit's dataflow bound.
	SpeedOfDataMs float64
	// NetworkBlockedMs is the time gates spent queueing for and transiting
	// the interconnect.
	NetworkBlockedMs float64
	// AncillaWaitMs is the time gates spent factory-starved (QEC steps and
	// teleport ancillae).
	AncillaWaitMs float64
	// CrossGates and Teleports summarise the routed traffic.
	CrossGates int
	Teleports  int
	// MeanHops is the average one-way route length per teleport.
	MeanHops float64
	// MaxLinkHighWater is the largest buffered EPR-pair peak across links.
	MaxLinkHighWater float64
	// Events is the kernel event count.
	Events int
}

// SweepConfig parameterises the netsweep grid.
type SweepConfig struct {
	// Latency supplies gate and QEC timings.
	Latency schedule.LatencyModel
	// ZeroPerMs and Pi8PerMs are the chip-wide ancilla demands each planned
	// mesh is provisioned for (split across tiles by PlanConfig).
	ZeroPerMs, Pi8PerMs float64
	// LinkBufferPairs bounds every link's EPR channel buffer (<= 0 leaves
	// the channels unbounded).
	LinkBufferPairs float64
	// TileCounts are the mesh sizes of the grid (use DefaultTileCounts).
	TileCounts []int
	// LinkFactors scale the demand-matched link bandwidth (use
	// DefaultLinkFactors).
	LinkFactors []float64
}

// DefaultLinkFactors are the link-bandwidth scalings of the netsweep grid,
// as multiples of the demand-matched rate: from a starved interconnect to an
// over-provisioned one.
func DefaultLinkFactors() []float64 { return []float64{0.25, 0.5, 1, 2, 4} }

// DefaultTileCounts returns the tile counts of the netsweep grid: powers of
// two from 2 up to maxTiles.  A bound below 2 returns nil — the 1-tile mesh
// has no links to sweep; it is the degenerate parity case instead.
func DefaultTileCounts(maxTiles int) []int {
	var out []int
	for t := 2; t <= maxTiles; t *= 2 {
		out = append(out, t)
	}
	return out
}

// SweepEngine replays the circuit at every (tile count, link factor) cell of
// the grid through the experiment engine, one job per cell.  Jobs are keyed
// by the circuit fingerprint and the full cell parameters, so repeated and
// overlapping sweeps share results through the engine cache, and results are
// identical for any worker count.
func SweepEngine(ctx context.Context, eng *engine.Engine, c *quantum.Circuit, sc SweepConfig) ([]SweepPoint, error) {
	if len(sc.TileCounts) == 0 || len(sc.LinkFactors) == 0 {
		return nil, fmt.Errorf("network: empty sweep grid (netsweep needs a tile bound of at least 2; a 1-tile mesh has no links to sweep)")
	}
	var jobs []engine.Job[SweepPoint]
	for _, tiles := range sc.TileCounts {
		// Everything factor-independent — the machine plan, the qubit
		// partition, the dataflow critical path behind the matched rate — is
		// computed once per tile count, not once per grid cell.
		base, err := PlanConfig(sc.Latency, c.NumQubits, tiles, sc.ZeroPerMs, sc.Pi8PerMs)
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
		for _, factor := range sc.LinkFactors {
			base, factor := base, factor
			jobs = append(jobs, engine.Job[SweepPoint]{
				Key: engine.Fingerprint("network.sweep", part.Key, sc.Latency, sc.ZeroPerMs, sc.Pi8PerMs,
					sc.LinkBufferPairs, factor),
				Run: func(context.Context, *rand.Rand) (SweepPoint, error) {
					cfg := base
					cfg.LinkEPRPerMs = matched * factor
					// The perimeter bounds how many EPR channels a link can
					// physically carry.
					if ceiling := cfg.Machine.LinkEPRPerMs(); cfg.LinkEPRPerMs > ceiling {
						cfg.LinkEPRPerMs = ceiling
					}
					run, err := Replay(c, cfg)
					if err != nil {
						return SweepPoint{}, err
					}
					r := run.Results[0]
					meanHops := 0.0
					if r.Teleports > 0 {
						meanHops = float64(r.Hops) / float64(r.Teleports)
					}
					return SweepPoint{
						Tiles:               len(cfg.Machine.Tiles),
						LinkFactor:          factor,
						LinkEPRPerMs:        cfg.LinkEPRPerMs,
						MatchedLinkEPRPerMs: matched,
						ExecutionTimeMs:     r.ExecutionTime.Milliseconds(),
						SpeedOfDataMs:       r.SpeedOfData.Milliseconds(),
						NetworkBlockedMs:    r.NetworkBlocked.Milliseconds(),
						AncillaWaitMs:       r.AncillaWait.Milliseconds(),
						CrossGates:          r.CrossGates,
						Teleports:           r.Teleports,
						MeanHops:            meanHops,
						MaxLinkHighWater:    run.MaxLinkHighWater(),
						Events:              run.Events,
					}, nil
				},
			})
		}
	}
	return engine.Run(ctx, eng, jobs)
}
