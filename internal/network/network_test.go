package network

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"speedofdata/internal/circuits"
	"speedofdata/internal/engine"
	"speedofdata/internal/iontrap"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
	"speedofdata/internal/sim"
)

func TestTopologyGeometry(t *testing.T) {
	topo := NewTopology(6) // 3x2, full grid
	if topo.Cols != 3 || topo.Rows != 2 || topo.TileCount() != 6 {
		t.Fatalf("6-tile mesh = %+v", topo)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := topo.HopDistance(0, 5); d != 3 {
		t.Errorf("corner-to-corner distance = %d, want 3", d)
	}
	// Dimension-order: X legs first, then Y.
	want := []Link{{0, 1}, {1, 2}, {2, 5}}
	if got := topo.Route(0, 5); !reflect.DeepEqual(got, want) {
		t.Errorf("route 0->5 = %v, want %v", got, want)
	}
	if got := topo.Route(2, 2); got != nil {
		t.Errorf("self route = %v, want nil", got)
	}
	// Routes are deterministic call to call.
	if a, b := topo.Route(5, 0), topo.Route(5, 0); !reflect.DeepEqual(a, b) {
		t.Errorf("route not deterministic: %v vs %v", a, b)
	}
}

func TestTopologyPartialRowFallback(t *testing.T) {
	topo := NewTopology(3) // 2x2 grid with tile (1,1) unpopulated
	if topo.Cols != 2 || topo.Rows != 2 {
		t.Fatalf("3-tile mesh = %+v", topo)
	}
	// X-then-Y from tile 2 (0,1) to tile 1 (1,0) would step onto the
	// missing cell (1,1); the route must fall back to Y-then-X with the
	// same length.
	route := topo.Route(2, 1)
	want := []Link{{2, 0}, {0, 1}}
	if !reflect.DeepEqual(route, want) {
		t.Errorf("partial-row route = %v, want %v", route, want)
	}
	if len(route) != topo.HopDistance(2, 1) {
		t.Errorf("fallback changed route length: %d vs %d", len(route), topo.HopDistance(2, 1))
	}
	for _, l := range topo.Links() {
		if l.From >= 3 || l.To >= 3 {
			t.Errorf("link %v touches an unpopulated tile", l)
		}
	}
}

// Validate rejects meshes no route can be computed on.  NewTopology only
// builds valid ones, which the tests check with it.
func (t Topology) Validate() error {
	if t.Cols < 1 || t.Rows < 1 {
		return fmt.Errorf("network: mesh dimensions %dx%d must be positive", t.Cols, t.Rows)
	}
	if t.Tiles < 0 || t.Tiles > t.Cols*t.Rows {
		return fmt.Errorf("network: %d tiles do not fit a %dx%d mesh", t.Tiles, t.Cols, t.Rows)
	}
	if t.Tiles > 0 && t.Tiles <= t.Cols*(t.Rows-1) {
		return fmt.Errorf("network: %d tiles leave whole rows of a %dx%d mesh empty", t.Tiles, t.Cols, t.Rows)
	}
	return nil
}

func TestTopologyValidate(t *testing.T) {
	cases := []Topology{
		{Cols: 0, Rows: 1},
		{Cols: 2, Rows: 2, Tiles: 5},
		{Cols: 2, Rows: 2, Tiles: 2}, // whole last row empty
	}
	for _, topo := range cases {
		if err := topo.Validate(); err == nil {
			t.Errorf("%+v should be invalid", topo)
		}
	}
	if err := (Topology{Cols: 2, Rows: 2}).Validate(); err != nil {
		t.Errorf("full 2x2 mesh invalid: %v", err)
	}
}

func TestPartitionDeterministicAndBounded(t *testing.T) {
	c, err := circuits.Generate(circuits.QCLA, 8)
	if err != nil {
		t.Fatal(err)
	}
	const tiles = 4
	a, err := PartitionCircuit(c, tiles)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionCircuit(c, tiles)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("partition is not deterministic")
	}
	capacity := (c.NumQubits + tiles - 1) / tiles
	occ := make([]int, tiles)
	for q, tile := range a.TileOf {
		if tile < 0 || tile >= tiles {
			t.Fatalf("qubit %d on tile %d", q, tile)
		}
		occ[tile]++
	}
	for tile, n := range occ {
		if n > capacity {
			t.Errorf("tile %d holds %d qubits, capacity %d", tile, n, capacity)
		}
	}
	if a.CrossGates <= 0 {
		t.Error("a multi-tile adder should have cross-tile gates")
	}
	if a.Key == "" {
		t.Error("partition key missing")
	}
}

// parityConfig builds the 1-tile degenerate mesh matched to a fluid
// schedule.Supply: a single tile whose zero supply rate equals the supply's,
// with ballistic movement disabled so local gates carry exactly the
// schedule model's weight.
func parityConfig(t *testing.T, m schedule.LatencyModel, nQubits int, ratePerMs float64) Config {
	t.Helper()
	cfg, err := PlanConfig(m, nQubits, 1, ratePerMs, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Machine.Movement.BallisticPerGateUs = 0
	cfg.TileZeroRatePerMs = ratePerMs
	return cfg
}

// The acceptance anchor: a 1-tile mesh has no links, so Replay must
// reproduce the fluid-mode schedule.Replay bit for bit on every registered
// benchmark — same issue order, same token-bucket arithmetic, same
// where-time-went decomposition.
func TestOneTileReplayMatchesScheduleFluid(t *testing.T) {
	m := schedule.DefaultLatencyModel()
	for _, b := range circuits.Benchmarks() {
		c, err := circuits.Generate(b, 8)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := schedule.Characterize(c, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, factor := range []float64{0.5, 1, 4} {
			rate := ch.ZeroBandwidthPerMs * factor
			want, err := schedule.Replay(c, m, schedule.Supply{RatePerMs: rate})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Replay(c, parityConfig(t, m, c.NumQubits, rate))
			if err != nil {
				t.Fatal(err)
			}
			if got.Results[0].ReplayResult != want.Results[0] {
				t.Errorf("%v at %.2fx: 1-tile mesh diverged from schedule.Replay:\n got %+v\nwant %+v",
					b, factor, got.Results[0].ReplayResult, want.Results[0])
			}
			if got.Events != want.Events {
				t.Errorf("%v at %.2fx: events %d != %d", b, factor, got.Events, want.Events)
			}
			if len(got.Links) != 0 || got.Results[0].Teleports != 0 {
				t.Errorf("%v: 1-tile mesh should have no interconnect traffic", b)
			}
		}
	}
}

// randomCircuit draws a small circuit over the whole gate set: up to
// maxQubits qubits and maxGates gates on random distinct operands.
func randomCircuit(rng *rand.Rand, maxQubits, maxGates int) *quantum.Circuit {
	n := 1 + rng.Intn(maxQubits)
	c := quantum.NewCircuit(fmt.Sprintf("random-%d", n), n)
	var kinds []quantum.GateKind
	for k := quantum.GateI; k <= quantum.GatePrepPlus; k++ { // GatePrepPlus is the last kind
		kinds = append(kinds, k)
	}
	for i, gates := 0, rng.Intn(maxGates+1); i < gates; i++ {
		if k := kinds[rng.Intn(len(kinds))]; k.Arity() <= n {
			c.Add(k, rng.Perm(n)[:k.Arity()]...)
		}
	}
	return c
}

// FuzzOneTileReplayParity runs the 1-tile oracle pair over random circuits
// and supply rates: the degenerate mesh must reproduce the fluid
// schedule.Replay bit for bit, kernel event count included.
func FuzzOneTileReplayParity(f *testing.F) {
	f.Add(int64(1), 100.0)
	f.Add(int64(2), 0.5)
	f.Add(int64(3), 1e5)
	f.Fuzz(func(t *testing.T, seed int64, ratePerMs float64) {
		if !(ratePerMs >= 1e-3 && ratePerMs <= 1e9) {
			return
		}
		c := randomCircuit(rand.New(rand.NewSource(seed)), 12, 80)
		m := schedule.DefaultLatencyModel()
		want, err := schedule.Replay(c, m, schedule.Supply{RatePerMs: ratePerMs})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Replay(c, parityConfig(t, m, c.NumQubits, ratePerMs))
		if err != nil {
			t.Fatal(err)
		}
		if got.Results[0].ReplayResult != want.Results[0] || got.Makespan != want.Makespan || got.Events != want.Events {
			t.Fatalf("%d qubits, %d gates at %v/ms: 1-tile mesh diverged from schedule.Replay:\n got %+v (%d events)\nwant %+v (%d events)",
				c.NumQubits, len(c.Gates), ratePerMs, got.Results[0].ReplayResult, got.Events, want.Results[0], want.Events)
		}
	})
}

func TestMultiTileReplayAccounting(t *testing.T) {
	m := schedule.DefaultLatencyModel()
	c, err := circuits.Generate(circuits.QCLA, 8)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := schedule.Characterize(c, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := PlanConfig(m, c.NumQubits, 4, ch.ZeroBandwidthPerMs*2, ch.Pi8BandwidthPerMs)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Replay(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := run.Results[0]
	if r.CrossGates <= 0 || r.Teleports <= 0 || r.Hops < r.Teleports {
		t.Fatalf("no routed traffic: %+v", r)
	}
	if r.NetworkBlocked <= 0 {
		t.Error("cross-tile teleports must accumulate network-blocked time")
	}
	if r.ExecutionTime < r.SpeedOfData {
		t.Errorf("makespan %v below the dataflow bound %v", r.ExecutionTime, r.SpeedOfData)
	}
	histTotal := 0
	for d, n := range r.HopHistogram {
		if d == 0 && n != 0 {
			t.Error("zero-distance teleports recorded")
		}
		histTotal += n
	}
	if histTotal != r.Teleports {
		t.Errorf("hop histogram sums to %d, want %d teleports", histTotal, r.Teleports)
	}
	pairs := 0.0
	for _, l := range run.Links {
		pairs += l.PairsConsumed
	}
	if int(math.Round(pairs)) != r.Hops {
		t.Errorf("links delivered %.0f pairs, want one per hop (%d)", pairs, r.Hops)
	}
	if r.TeleportAncillae != r.Hops*cfg.Machine.Movement.TeleportAncillae {
		t.Errorf("teleport ancillae %d, want %d per hop", r.TeleportAncillae, cfg.Machine.Movement.TeleportAncillae)
	}
	// Replays are deterministic end to end.
	again, err := Replay(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run, again) {
		t.Error("replay is not deterministic")
	}
}

func TestReplaySharedMeshContention(t *testing.T) {
	m := schedule.DefaultLatencyModel()
	qrca, err := circuits.Generate(circuits.QRCA, 8)
	if err != nil {
		t.Fatal(err)
	}
	qcla, err := circuits.Generate(circuits.QCLA, 8)
	if err != nil {
		t.Fatal(err)
	}
	chA, err := schedule.Characterize(qrca, m)
	if err != nil {
		t.Fatal(err)
	}
	chB, err := schedule.Characterize(qcla, m)
	if err != nil {
		t.Fatal(err)
	}
	demand := chA.ZeroBandwidthPerMs + chB.ZeroBandwidthPerMs
	nQubits := qrca.NumQubits + qcla.NumQubits
	cfg, err := PlanConfig(m, nQubits, 4, demand, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Starve the links so sharing is visible.
	cfg.LinkEPRPerMs = cfg.Machine.LinkEPRPerMs() / 4
	shared, err := ReplayShared([]*quantum.Circuit{qrca, qcla}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []*quantum.Circuit{qrca, qcla} {
		solo, err := Replay(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if shared.Results[i].ExecutionTime < solo.Results[0].ExecutionTime-1e-6 {
			t.Errorf("%s: shared-mesh makespan %v beat the solo makespan %v",
				c.Name, shared.Results[i].ExecutionTime, solo.Results[0].ExecutionTime)
		}
	}
	if shared.Makespan < shared.Results[0].ExecutionTime || shared.Makespan < shared.Results[1].ExecutionTime {
		t.Error("run makespan must cover every circuit")
	}
}

func TestConfigValidate(t *testing.T) {
	m := schedule.DefaultLatencyModel()
	good, err := PlanConfig(m, 16, 4, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("planned config invalid: %v", err)
	}

	bad := good
	bad.Machine.Movement.TeleportUs = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative teleport latency should fail validation")
	}
	bad = good
	bad.Machine.Movement.BallisticPerGateUs = iontrap.Microseconds(math.NaN())
	if err := bad.Validate(); err == nil {
		t.Error("NaN ballistic latency should fail validation")
	}
	bad = good
	bad.Machine.Movement.TeleportUs = 0 // derived link bandwidth collapses to zero
	if err := bad.Validate(); !errors.Is(err, sim.ErrZeroRate) {
		t.Errorf("zero link bandwidth error = %v, want ErrZeroRate", err)
	}
	bad = good
	bad.LinkBufferPairs = -2
	if err := bad.Validate(); err == nil {
		t.Error("negative link buffer should fail validation")
	}
	bad = good
	bad.TileZeroRatePerMs = -5
	if err := bad.Validate(); !errors.Is(err, sim.ErrZeroRate) {
		t.Errorf("negative tile rate error = %v, want ErrZeroRate", err)
	}
	bad = good
	bad.Machine.Tiles = nil
	if err := bad.Validate(); err == nil {
		t.Error("machine with no tiles should fail validation")
	}
	if _, err := PlanConfig(m, 16, 0, 100, 0); err == nil {
		t.Error("zero tiles should fail planning")
	}
}

// The netsweep property the scenario exists to show: with the factories
// over-provisioned, raising the link EPR bandwidth monotonically shrinks the
// network-blocked share of the makespan.
func TestSweepNetworkBlockedMonotoneInLinkBandwidth(t *testing.T) {
	_, two := testMesh(t, circuits.QCLA, 2)
	_, four := testMesh(t, circuits.QCLA, 4)
	var cells []Cell
	for _, factor := range []float64{0.25, 0.5, 1, 2, 4} {
		cells = append(cells, Cell{LinkFactor: factor})
	}
	points, err := Sweep(context.Background(), nil, cells, two, four)
	if err != nil {
		t.Fatal(err)
	}
	byTiles := map[int][]Point{}
	for _, p := range points {
		byTiles[p.Tiles] = append(byTiles[p.Tiles], p)
	}
	if len(byTiles) != 2 {
		t.Fatalf("sweep covered tile counts %v, want 2 and 4", byTiles)
	}
	for tiles, row := range byTiles {
		for i := 1; i < len(row); i++ {
			if row[i].LinkFactor <= row[i-1].LinkFactor {
				t.Fatalf("%d tiles: factors out of order", tiles)
			}
			if row[i].NetworkBlockedMs > row[i-1].NetworkBlockedMs+1e-9 {
				t.Errorf("%d tiles: network-blocked rose from %.4f ms (x%.2f) to %.4f ms (x%.2f)",
					tiles, row[i-1].NetworkBlockedMs, row[i-1].LinkFactor,
					row[i].NetworkBlockedMs, row[i].LinkFactor)
			}
		}
		// The starved end must actually be link-bound — the sweep is useless
		// if the lowest bandwidth never queues.
		if first, last := row[0], row[len(row)-1]; first.NetworkBlockedMs <= last.NetworkBlockedMs {
			t.Errorf("%d tiles: starving the links (%.4f ms blocked) did not exceed the over-provisioned end (%.4f ms)",
				tiles, first.NetworkBlockedMs, last.NetworkBlockedMs)
		}
	}
}

// Sweeps are byte-identical across worker counts: the partitioner, the
// routes and the replay all depend only on their inputs.
func TestSweepEngineDeterministicAcrossWorkers(t *testing.T) {
	_, two := testMesh(t, circuits.QRCA, 2)
	_, four := testMesh(t, circuits.QRCA, 4)
	cells := []Cell{{LinkFactor: 0.5}, {LinkFactor: 1}, {LinkFactor: 2}}
	seq, err := Sweep(t.Context(), engine.New(1), cells, two, four)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(t.Context(), engine.New(8), cells, two, four)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("sweep differs between 1 and 8 workers")
	}
}

// LinkRate is the one link-bandwidth rule: factor times the matched rate,
// capped at the perimeter ceiling, which also stands in when the matched
// rate is zero (no links, or no cross-tile traffic).
func TestLinkRate(t *testing.T) {
	cfg, err := PlanConfig(schedule.DefaultLatencyModel(), 16, 4, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	ceiling := cfg.Machine.LinkEPRPerMs()
	if !(ceiling > 0) {
		t.Fatalf("ceiling = %v", ceiling)
	}
	cases := []struct {
		name                    string
		matched, factor, wanted float64
	}{
		{"zero matched rate", 0, 1, ceiling},
		{"zero matched rate, over-provisioned", 0, 4, ceiling},
		{"above the ceiling", ceiling / 2, 4, ceiling},
		{"at the ceiling", ceiling, 1, ceiling},
		{"below the ceiling", ceiling / 8, 2, ceiling / 4},
		{"starved", ceiling / 8, 0.25, ceiling / 32},
	}
	for _, tc := range cases {
		mesh := Mesh{Config: cfg, MatchedLinkEPRPerMs: tc.matched}
		if got := mesh.LinkRate(tc.factor); got != tc.wanted {
			t.Errorf("%s: LinkRate(%v) with matched %v = %v, want %v", tc.name, tc.factor, tc.matched, got, tc.wanted)
		}
	}
	// A plan the qubits fill on one tile has no links and no matched rate.
	one, err := PlanMesh(schedule.DefaultLatencyModel(), []*quantum.Circuit{quantum.NewCircuit("one", 1)}, 2, 100, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if one.Tiles() != 1 || one.MatchedLinkEPRPerMs != 0 || one.LinkRate(1) != one.Config.Machine.LinkEPRPerMs() {
		t.Errorf("1-qubit plan: %d tiles, matched %v, rate %v", one.Tiles(), one.MatchedLinkEPRPerMs, one.LinkRate(1))
	}
}

// Sweep replays one circuit per mesh, and only meshes PlanMesh keyed: a
// hand-built mesh would share cache keys across machines.
func TestSweepRejectsUnplannedMesh(t *testing.T) {
	c, mesh := testMesh(t, circuits.QCLA, 4)
	cells := []Cell{{LinkFactor: 1}}
	if _, err := Sweep(t.Context(), nil, cells, Mesh{Config: mesh.Config, Topology: mesh.Topology, Circuits: mesh.Circuits}); err == nil {
		t.Error("a mesh not planned by PlanMesh swept")
	}
	shared, err := PlanMesh(mesh.Config.Latency, []*quantum.Circuit{c, c}, 4, 100, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(t.Context(), nil, cells, shared); err == nil {
		t.Error("a two-circuit mesh swept")
	}
}

func TestReplayEdgeCases(t *testing.T) {
	m := schedule.DefaultLatencyModel()
	cfg := parityConfig(t, m, 1, 10)
	if _, err := ReplayShared(nil, cfg); err == nil {
		t.Error("no circuits should be an error")
	}
	empty := quantum.NewCircuit("empty", 2)
	run, err := Replay(empty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run.Results[0].ExecutionTime != 0 || run.Events != 0 {
		t.Errorf("empty replay = %+v", run)
	}
}

func TestReplayPinnedPartitions(t *testing.T) {
	m := schedule.DefaultLatencyModel()
	c, err := circuits.Generate(circuits.QRCA, 8)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := schedule.Characterize(c, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := PlanConfig(m, c.NumQubits, 4, ch.ZeroBandwidthPerMs*2, 0)
	if err != nil {
		t.Fatal(err)
	}
	free, err := Replay(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionCircuit(c, len(cfg.Machine.Tiles))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Partitions = []Partition{part}
	pinned, err := Replay(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pinning the partition the replay would have computed changes nothing.
	if !reflect.DeepEqual(free, pinned) {
		t.Error("pinned partition diverged from the freshly computed one")
	}

	bad := cfg
	bad.Partitions = []Partition{part, part}
	if _, err := Replay(c, bad); err == nil {
		t.Error("partition count mismatch should fail")
	}
	bad = cfg
	wrong := part
	wrong.Tiles = 2
	bad.Partitions = []Partition{wrong}
	if _, err := Replay(c, bad); err == nil {
		t.Error("partition tile-count mismatch should fail")
	}
}
