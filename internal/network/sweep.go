package network

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"speedofdata/internal/engine"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
)

// Mesh is one planned routed mesh: the machine provisioned for its
// circuits, each circuit's qubit partition and the demand-matched link
// rate, computed once and shared by every replay on it.
type Mesh struct {
	// Config is the base replay configuration: the planned machine, the
	// latency model, the link buffer and the pinned partitions.  A replay
	// sets its link rate and fault plan on a copy.
	Config Config
	// Topology is the mesh the planned tiles form.
	Topology Topology
	// Circuits are the planned circuits, index-aligned with
	// Config.Partitions.
	Circuits []*quantum.Circuit
	// MatchedLinkEPRPerMs sums every circuit's MatchedLinkEPRPerMs: the
	// per-link rate at which the interconnect moves data as fast as the
	// circuits' computation demands it.
	MatchedLinkEPRPerMs float64
	// key fingerprints the mesh inputs for the engine cache.
	key string
}

// PlanMesh plans the mesh the circuits replay on: PlanConfig provisions at
// most tiles tiles for their combined qubits and the chip-wide demands
// zeroPerMs and pi8PerMs, each circuit is partitioned across the tiles the
// plan actually has (layout.PlanQalypso stops at the tiles the qubits
// fill), and the matched rate is summed once.  linkBufferPairs bounds every
// link's EPR channel buffer (<= 0 leaves the channels unbounded).
func PlanMesh(m schedule.LatencyModel, cs []*quantum.Circuit, tiles int, zeroPerMs, pi8PerMs, linkBufferPairs float64) (Mesh, error) {
	qubits := 0
	for _, c := range cs {
		qubits += c.NumQubits
	}
	cfg, err := PlanConfig(m, qubits, tiles, zeroPerMs, pi8PerMs)
	if err != nil {
		return Mesh{}, err
	}
	cfg.LinkBufferPairs = linkBufferPairs
	mesh := Mesh{Config: cfg, Topology: NewTopology(len(cfg.Machine.Tiles)), Circuits: cs}
	key := []any{"network.sweep"}
	for _, c := range cs {
		part, err := PartitionCircuit(c, mesh.Topology.TileCount())
		if err != nil {
			return Mesh{}, err
		}
		mesh.Config.Partitions = append(mesh.Config.Partitions, part)
		mesh.MatchedLinkEPRPerMs += MatchedLinkEPRPerMs(c, m, mesh.Topology, part)
		key = append(key, part.Key)
	}
	mesh.key = engine.Fingerprint(append(key, m, zeroPerMs, pi8PerMs, linkBufferPairs)...)
	return mesh, nil
}

// Tiles is the planned tile count, which may be below the requested bound.
func (m Mesh) Tiles() int { return m.Topology.TileCount() }

// LinkRate is the per-link EPR bandwidth at factor times the matched rate,
// capped at the geometric ceiling the tile perimeter can carry
// (layout.Qalypso.LinkEPRPerMs).  The ceiling also stands in when the mesh
// has no matched rate: no links, or no cross-tile traffic.
func (m Mesh) LinkRate(factor float64) float64 {
	rate := factor * m.MatchedLinkEPRPerMs
	if ceiling := m.Config.Machine.LinkEPRPerMs(); !(rate > 0) || rate > ceiling {
		return ceiling
	}
	return rate
}

// Cell is one replay of a sweep: the link bandwidth as a multiple of the
// mesh's matched rate (Mesh.LinkRate), and the faults injected.
type Cell struct {
	LinkFactor float64
	Faults     FaultPlan
}

// Point is the result of one cell on one mesh.
type Point struct {
	// Tiles is the planned mesh's tile count.
	Tiles int
	// LinkFactor and LinkEPRPerMs are the cell's link bandwidth, as a
	// multiple of MatchedLinkEPRPerMs and as the effective healthy-link rate.
	LinkFactor   float64
	LinkEPRPerMs float64
	// MatchedLinkEPRPerMs is the Section 6 balance-point estimate.
	MatchedLinkEPRPerMs float64
	// ExecutionTimeMs is the replay makespan and SpeedOfDataMs the
	// circuit's dataflow bound.
	ExecutionTimeMs float64
	SpeedOfDataMs   float64
	// NetworkBlockedMs is the time gates spent queueing for and transiting
	// the interconnect; AncillaWaitMs the time they spent factory-starved.
	NetworkBlockedMs float64
	AncillaWaitMs    float64
	// CrossGates and Teleports summarise the routed traffic.
	CrossGates int
	Teleports  int
	// MeanHops is the average one-way route length per teleport.
	MeanHops float64
	// MaxLinkHighWater is the largest buffered EPR-pair peak across links.
	MaxLinkHighWater float64
	// Events is the kernel event count.
	Events int
	// Faults is the fault decomposition of the replay.
	Faults FaultStats
	// Partitioned reports that the cell's faults disconnected the routed
	// traffic: only the fields above the makespan and Faults.FailedLinks
	// (the plan's dead links) are set.
	Partitioned bool
}

// Sweep replays each mesh's circuit at every cell, mesh-major, as one batch
// of engine jobs.  A job is keyed by network.sweep, the mesh inputs and the
// cell, its fault plan rendered by content, so scenarios that share a cell
// share its result through the engine cache, and results are identical for
// any worker count.  A cell whose faults partition the mesh reports
// Partitioned instead of failing the sweep.
func Sweep(ctx context.Context, eng *engine.Engine, cells []Cell, meshes ...Mesh) ([]Point, error) {
	var jobs []engine.Job[Point]
	for _, mesh := range meshes {
		if mesh.key == "" || len(mesh.Circuits) != 1 {
			return nil, fmt.Errorf("network: a sweep replays one circuit on a mesh from PlanMesh")
		}
		c := mesh.Circuits[0]
		for _, cell := range cells {
			jobs = append(jobs, engine.Job[Point]{
				Key: engine.Fingerprint(mesh.key, cell.LinkFactor, cell.Faults),
				Run: func(context.Context, *rand.Rand) (Point, error) {
					cfg := mesh.Config
					cfg.LinkEPRPerMs = mesh.LinkRate(cell.LinkFactor)
					cfg.Faults = cell.Faults
					p := Point{
						Tiles:               mesh.Tiles(),
						LinkFactor:          cell.LinkFactor,
						LinkEPRPerMs:        cfg.LinkEPRPerMs,
						MatchedLinkEPRPerMs: mesh.MatchedLinkEPRPerMs,
					}
					run, err := Replay(c, cfg)
					if errors.Is(err, ErrPartitioned) {
						for _, f := range cell.Faults {
							if f.Dead {
								p.Faults.FailedLinks++
							}
						}
						p.Partitioned = true
						return p, nil
					}
					if err != nil {
						return Point{}, err
					}
					r := run.Results[0]
					p.ExecutionTimeMs = r.ExecutionTime.Milliseconds()
					p.SpeedOfDataMs = r.SpeedOfData.Milliseconds()
					p.NetworkBlockedMs = r.NetworkBlocked.Milliseconds()
					p.AncillaWaitMs = r.AncillaWait.Milliseconds()
					p.CrossGates, p.Teleports = r.CrossGates, r.Teleports
					if r.Teleports > 0 {
						p.MeanHops = float64(r.Hops) / float64(r.Teleports)
					}
					p.MaxLinkHighWater = run.MaxLinkHighWater()
					p.Events = run.Events
					p.Faults = run.Faults
					return p, nil
				},
			})
		}
	}
	return engine.Run(ctx, eng, jobs)
}
