// Package network models the teleportation interconnect of a tiled Qalypso
// machine the way Sections 5.3 and 6 of the paper describe it: data moves
// between tiles only by teleportation, every teleport consumes one
// pre-distributed EPR pair from the link it crosses plus encoded zero
// ancillae from the departing tile's factories, and a machine is balanced
// only when the interconnect moves data at a rate matched to computation.
//
// The tiles of a layout.Qalypso become nodes of a 2D mesh (Topology).  Each
// directed inter-tile link is backed by an EPR-pair generator — a
// sim.Producer cadenced from the link's EPR bandwidth, itself derived from
// the tile perimeter (layout.Qalypso.LinkEPRPerMs) — feeding a finite
// sim.Resource channel buffer, so a burst of teleports across one boundary
// queues behind the link's distribution rate.  Teleports route with
// deterministic dimension-order (X-then-Y) routing; per hop they pay the
// movement model's teleport latency after the EPR pair and the teleport
// ancillae are available.
//
// Replay executes benchmark dataflow graphs across the mesh on the
// discrete-event kernel of internal/sim: qubits are placed by a
// deterministic partitioner (PartitionCircuit), local gates pay ballistic
// movement, and cross-tile gates teleport their operands to the execution
// tile and back.  PlanMesh plans a mesh once — the machine, each circuit's
// partition and the demand-matched link rate (MatchedLinkEPRPerMs, the
// Section 6 balance point) — and Mesh.LinkRate is the one rule that scales
// that rate and caps it at the perimeter ceiling.  Sweep replays cells (a
// link factor plus a FaultPlan) on planned meshes through the experiment
// engine: the netsweep, netfault and netdegrade scenarios are cell lists
// over it, and a cell two of them share is one cache entry.
//
// A 1-tile mesh has no links, so Replay degenerates to the
// single-region fluid replay of internal/schedule and — once ballistic
// movement is zeroed and TileZeroRatePerMs pinned to the supply rate, the
// two costs schedule.Replay does not model — reproduces it bit for bit, the
// parity anchor for every multi-tile extension
// (TestOneTileReplayMatchesScheduleFluid).
package network

import (
	"fmt"
	"math"

	"speedofdata/internal/layout"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
	"speedofdata/internal/sim"
)

// Config describes one routed-mesh replay: the machine, the gate latency
// model, and the interconnect parameters.
type Config struct {
	// Machine is the tiled microarchitecture whose tiles become mesh nodes;
	// its Movement model prices each hop and its tiles' zero factories feed
	// both QEC steps and teleports.
	Machine layout.Qalypso
	// Latency supplies gate and QEC timings (the Section 3 model).
	Latency schedule.LatencyModel
	// LinkEPRPerMs is the EPR-pair distribution bandwidth of one directed
	// inter-tile link; zero derives it from the machine geometry
	// (Machine.LinkEPRPerMs: one pair per teleport latency per edge port).
	LinkEPRPerMs float64
	// LinkBufferPairs bounds each link's channel buffer of ready EPR pairs;
	// non-positive leaves the channel unbounded, so pairs accumulate while
	// the link is idle.
	LinkBufferPairs float64
	// TileZeroRatePerMs overrides every tile's encoded-zero supply rate;
	// zero uses each tile's own net ZeroBandwidthPerMs.  +Inf models the
	// speed-of-data supply.
	TileZeroRatePerMs float64
	// Partitions optionally pins each replayed circuit's qubit→tile
	// assignment, index-aligned with the circuits passed to ReplayShared.
	// Empty computes PartitionCircuit per circuit; callers that already
	// partitioned (to size the link bandwidth, say) pass the result here so
	// the work is not repeated.
	Partitions []Partition
	// Faults is the deterministic fault plan injected into the replay:
	// dead links and EPR-rate degradations, static (At == 0) or scheduled
	// at event-kernel timestamps.  Empty runs the fault-free fast path,
	// byte-identical to a build without the fault layer.
	Faults FaultPlan
}

// linkRatePerMs returns the effective per-link EPR bandwidth.
func (cfg Config) linkRatePerMs() float64 {
	if cfg.LinkEPRPerMs > 0 {
		return cfg.LinkEPRPerMs
	}
	return cfg.Machine.LinkEPRPerMs()
}

// tileRatePerMs returns tile i's effective encoded-zero supply rate.
func (cfg Config) tileRatePerMs(i int) float64 {
	if cfg.TileZeroRatePerMs != 0 {
		return cfg.TileZeroRatePerMs
	}
	return cfg.Machine.Tiles[i].ZeroBandwidthPerMs()
}

// Validate rejects configurations no replay can run: it revalidates the
// movement model (layout.MovementModel.Validate), the latency model, and the
// interconnect rates, so non-physical parameters fail fast here instead of
// surfacing as negative latencies mid-simulation.
func (cfg Config) Validate() error {
	if err := cfg.Latency.Validate(); err != nil {
		return err
	}
	if err := cfg.Machine.Movement.Validate(); err != nil {
		return err
	}
	if len(cfg.Machine.Tiles) == 0 {
		return fmt.Errorf("network: machine has no tiles")
	}
	if cfg.LinkBufferPairs < 0 {
		return fmt.Errorf("network: negative link buffer capacity %v", cfg.LinkBufferPairs)
	}
	if len(cfg.Machine.Tiles) > 1 {
		rate := cfg.linkRatePerMs()
		if !(rate > 0) {
			return fmt.Errorf("network: link EPR bandwidth %v/ms: %w", rate, sim.ErrZeroRate)
		}
		if math.IsInf(rate, 0) || math.IsNaN(rate) {
			return fmt.Errorf("network: link EPR bandwidth %v/ms is not finite", rate)
		}
	}
	for i := range cfg.Machine.Tiles {
		if r := cfg.tileRatePerMs(i); !(r > 0) {
			return fmt.Errorf("network: tile %d zero supply %v/ms: %w", i, r, sim.ErrZeroRate)
		}
	}
	if len(cfg.Faults) > 0 {
		if err := cfg.Faults.Validate(NewTopology(len(cfg.Machine.Tiles))); err != nil {
			return err
		}
	}
	return nil
}

// MatchedLinkEPRPerMs estimates the per-link EPR bandwidth that moves data
// at the rate computation demands — the balance point of Section 6: the
// EPR pairs the partitioned circuit consumes (one per hop, two routed trips
// per cross-tile operand) spread evenly over the mesh links and the
// circuit's dataflow-bound duration.  Below this rate the interconnect is
// the bottleneck; above it, link queueing fades.  Returns zero for meshes
// with no links or circuits with no dataflow time.
func MatchedLinkEPRPerMs(c *quantum.Circuit, m schedule.LatencyModel, topo Topology, part Partition) float64 {
	links := len(topo.Links())
	if links == 0 {
		return 0
	}
	dag := c.DAG()
	_, sodUs := dag.WeightedCriticalPath(func(g quantum.Gate) float64 {
		return float64(m.GateWeightSpeedOfData(g))
	})
	if !(sodUs > 0) || math.IsInf(sodUs, 0) || math.IsNaN(sodUs) {
		return 0
	}
	hops := 0
	for _, g := range c.Gates {
		if len(g.Qubits) < 2 {
			continue
		}
		exec := part.TileOf[g.Qubits[len(g.Qubits)-1]]
		for _, q := range g.Qubits[:len(g.Qubits)-1] {
			if t := part.TileOf[q]; t != exec {
				hops += 2 * topo.HopDistance(t, exec)
			}
		}
	}
	if hops == 0 {
		return 0
	}
	return float64(hops) * 1000.0 / (float64(links) * sodUs)
}

// PlanConfig provisions a routed-mesh configuration for a circuit of
// nQubits data qubits split across (at most) tiles tiles: the machine is
// planned with layout.PlanQalypso, so each tile is provisioned for its share
// of the given encoded-zero and π/8 demand, and the link bandwidth and
// buffers are left at their geometry-derived defaults.  Note PlanQalypso may
// produce fewer tiles than requested when the qubits divide unevenly; read
// the actual count from len(Config.Machine.Tiles).
func PlanConfig(m schedule.LatencyModel, nQubits, tiles int, zeroPerMs, pi8PerMs float64) (Config, error) {
	if tiles < 1 {
		return Config{}, fmt.Errorf("network: mesh needs at least one tile, got %d", tiles)
	}
	tileQubits := (nQubits + tiles - 1) / tiles
	machine, err := layout.PlanQalypso(m.Tech, nQubits, tileQubits, zeroPerMs, pi8PerMs)
	if err != nil {
		return Config{}, err
	}
	return Config{Machine: machine, Latency: m}, nil
}
