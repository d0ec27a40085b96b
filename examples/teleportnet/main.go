// Teleportation interconnect walkthrough: place a benchmark on a 2x2 mesh of
// Qalypso tiles, replay it through the routed network simulator, and see
// where the time goes — then verify the 1-tile degenerate mesh reproduces
// the single-region fluid replay exactly (the parity anchor of
// internal/network).
package main

import (
	"fmt"

	"speedofdata/internal/circuits"
	"speedofdata/internal/network"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
)

func main() {
	m := schedule.DefaultLatencyModel()
	c, err := circuits.Generate(circuits.QCLA, 8)
	if err != nil {
		panic(err)
	}
	ch, err := schedule.Characterize(c, m)
	if err != nil {
		panic(err)
	}

	// Plan a 4-tile machine provisioned for twice the benchmark's average
	// zero-ancilla demand, so the interconnect is the interesting constraint.
	mesh, err := network.PlanMesh(m, []*quantum.Circuit{c}, 4, 2*ch.ZeroBandwidthPerMs, ch.Pi8BandwidthPerMs, 16)
	if err != nil {
		panic(err)
	}
	topo, part := mesh.Topology, mesh.Config.Partitions[0]
	fmt.Printf("== %s on a %dx%d mesh ==\n", c.Name, topo.Cols, topo.Rows)
	fmt.Printf("  cross-tile gates    : %d of %d\n", part.CrossGates, len(c.Gates))
	fmt.Printf("  matched link EPR bw : %.2f pairs/ms (geometric ceiling %.0f)\n",
		mesh.MatchedLinkEPRPerMs, mesh.Config.Machine.LinkEPRPerMs())

	fmt.Println("\n== Link bandwidth sweep ==")
	for _, factor := range []float64{0.5, 1, 4} {
		cfg := mesh.Config
		cfg.LinkEPRPerMs = mesh.LinkRate(factor)
		run, err := network.Replay(c, cfg)
		if err != nil {
			panic(err)
		}
		r := run.Results[0]
		fmt.Printf("  %.1fx matched: exec %.1f ms (dataflow bound %.1f), network-blocked %.1f ms, ancilla wait %.1f ms\n",
			factor, r.ExecutionTime.Milliseconds(), r.SpeedOfData.Milliseconds(),
			r.NetworkBlocked.Milliseconds(), r.AncillaWait.Milliseconds())
		fmt.Printf("       %d teleports, hop histogram %v, busiest link high water %.0f pairs\n",
			r.Teleports, r.HopHistogram, run.MaxLinkHighWater())
	}

	// The degenerate 1-tile mesh has no links: the routed replayer collapses
	// to the single-region fluid replay of internal/schedule, bit for bit.
	rate := ch.ZeroBandwidthPerMs
	one, err := network.PlanConfig(m, c.NumQubits, 1, rate, 0)
	if err != nil {
		panic(err)
	}
	one.Machine.Movement.BallisticPerGateUs = 0
	one.TileZeroRatePerMs = rate
	routed, err := network.Replay(c, one)
	if err != nil {
		panic(err)
	}
	fluid, err := schedule.Replay(c, m, schedule.Supply{RatePerMs: rate})
	if err != nil {
		panic(err)
	}
	fmt.Println("\n== 1-tile degenerate mesh vs schedule.Replay (fluid) ==")
	fmt.Printf("  mesh  : exec %v us, ancilla wait %v us\n",
		routed.Results[0].ExecutionTime, routed.Results[0].AncillaWait)
	fmt.Printf("  fluid : exec %v us, ancilla wait %v us\n",
		fluid.Results[0].ExecutionTime, fluid.Results[0].AncillaWait)
	fmt.Printf("  bit-identical: %v\n", routed.Results[0].ReplayResult == fluid.Results[0])
}
