package network

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"speedofdata/internal/circuits"
	"speedofdata/internal/engine"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
)

// testMesh plans a mesh of at most tiles tiles for the 8-bit benchmark with
// over-provisioned factories, so the interconnect is the binding constraint.
func testMesh(t *testing.T, b circuits.Benchmark, tiles int) (*quantum.Circuit, Mesh) {
	t.Helper()
	m := schedule.DefaultLatencyModel()
	c, err := circuits.Generate(b, 8)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := schedule.Characterize(c, m)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := PlanMesh(m, []*quantum.Circuit{c}, tiles, ch.ZeroBandwidthPerMs*2, ch.Pi8BandwidthPerMs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, mesh
}

// deadBisection kills both directions of the mesh's bisection boundary: the
// dead-link arm of netfault.
func deadBisection(topo Topology) FaultPlan {
	b, _ := BisectionBoundary(topo)
	return FaultPlan{{Link: b[0], Dead: true}, {Link: b[1], Dead: true}}
}

// The parity anchor of the fault layer: an absent plan and an empty plan
// replay byte-identically on every benchmark, single and shared.
func TestZeroFaultPlanByteIdentical(t *testing.T) {
	var cs []*quantum.Circuit
	var base Config
	for _, b := range circuits.Benchmarks() {
		c, mesh := testMesh(t, b, 4)
		cfg := mesh.Config
		want, err := Replay(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		withEmpty := cfg
		withEmpty.Faults = FaultPlan{}
		got, err := Replay(c, withEmpty)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%v: empty fault plan diverged from absent plan", b)
		}
		cs, base = append(cs, c), cfg
	}
	base.Partitions = nil // each circuit is partitioned by the shared replay
	want, err := ReplayShared(cs, base)
	if err != nil {
		t.Fatal(err)
	}
	base.Faults = FaultPlan{}
	got, err := ReplayShared(cs, base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("shared replay: empty fault plan diverged from absent plan")
	}
}

// The netfault dead-link arm on every benchmark: the replay completes (no
// deadlock), reroutes traffic around the dead boundary, and never beats the
// pristine makespan.
func TestDeadBisectionLinkReroutesAndCompletes(t *testing.T) {
	for _, b := range circuits.Benchmarks() {
		c, mesh := testMesh(t, b, 4)
		// Matched bandwidth keeps the links loaded so the dead link matters.
		cfg := mesh.Config
		cfg.LinkEPRPerMs = mesh.LinkRate(1)
		clean, err := Replay(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = deadBisection(mesh.Topology)
		run, err := Replay(c, cfg)
		if err != nil {
			t.Fatalf("%v: dead bisection link: %v", b, err)
		}
		if run.Faults.FailedLinks != 2 {
			t.Errorf("%v: failed links = %d, want 2", b, run.Faults.FailedLinks)
		}
		if run.Faults.Reroutes == 0 {
			t.Errorf("%v: dead bisection link caused no reroutes", b)
		}
		if run.Faults.DetourHops <= 0 {
			t.Errorf("%v: reroutes with no detour hops: %+v", b, run.Faults)
		}
		if run.Makespan < clean.Makespan-1e-6 {
			t.Errorf("%v: dead link sped the replay up: %v < %v", b, run.Makespan, clean.Makespan)
		}
		// Determinism with faults active.
		again, err := Replay(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(run, again) {
			t.Errorf("%v: faulted replay is not deterministic", b)
		}
	}
}

// Entries on one link combine as FaultPlan documents: a dead entry wins
// over a degradation in either order, and among degradations the last
// factor wins.
func TestFaultPlanEntriesOnOneLinkCombine(t *testing.T) {
	c, mesh := testMesh(t, circuits.QCLA, 4)
	cfg := mesh.Config
	cfg.LinkEPRPerMs = mesh.LinkRate(1)
	boundary, _ := BisectionBoundary(mesh.Topology)
	l := boundary[0]
	dead := LinkFault{Link: l, Dead: true}
	half, quarter := LinkFault{Link: l, RateFactor: 0.5}, LinkFault{Link: l, RateFactor: 0.25}
	replay := func(plan FaultPlan) ReplayRun {
		t.Helper()
		cfg.Faults = plan
		run, err := Replay(c, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", plan, err)
		}
		return run
	}
	for _, tc := range []struct {
		name             string
		plan, want       FaultPlan
		failed, degraded int
	}{
		{"degrade then kill", FaultPlan{half, dead}, FaultPlan{dead}, 1, 0},
		{"kill then degrade", FaultPlan{dead, half}, FaultPlan{dead}, 1, 0},
		{"two degradations", FaultPlan{half, quarter}, FaultPlan{quarter}, 0, 1},
	} {
		got, want := replay(tc.plan), replay(tc.want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %+v replayed unlike %+v:\n got %+v\nwant %+v", tc.name, tc.plan, tc.want, got, want)
		}
		if got.Faults.FailedLinks != tc.failed || got.Faults.DegradedLinks != tc.degraded {
			t.Errorf("%s: %d failed and %d degraded links, want %d and %d",
				tc.name, got.Faults.FailedLinks, got.Faults.DegradedLinks, tc.failed, tc.degraded)
		}
	}
	// The link carries enough traffic that its factor shows, so the
	// two-degradation row tells the last factor from the first.
	if reflect.DeepEqual(replay(FaultPlan{half}), replay(FaultPlan{quarter})) {
		t.Error("half and a quarter of the link's rate replayed alike")
	}
}

// Degrading every link slows pair generation without changing any route:
// the makespan ordering none <= degraded holds and degradation wait is
// attributed.
func TestDegradedLinksSlowButDoNotReroute(t *testing.T) {
	c, mesh := testMesh(t, circuits.QCLA, 4)
	topo := mesh.Topology
	cfg := mesh.Config
	cfg.LinkEPRPerMs = mesh.LinkRate(1)
	clean, err := Replay(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = DegradeAllLinks(topo, 0.75)
	run, err := Replay(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run.Faults.Reroutes != 0 || run.Faults.FailedLinks != 0 {
		t.Errorf("degradation rerouted or failed links: %+v", run.Faults)
	}
	if run.Faults.DegradedLinks != len(topo.Links()) {
		t.Errorf("degraded links = %d, want %d", run.Faults.DegradedLinks, len(topo.Links()))
	}
	if run.Makespan < clean.Makespan-1e-6 {
		t.Errorf("degraded links sped the replay up: %v < %v", run.Makespan, clean.Makespan)
	}
	if run.Results[0].NetworkBlocked > 0 && run.Faults.DegradedWaitUs < 0 {
		t.Errorf("negative degradation wait %v", run.Faults.DegradedWaitUs)
	}
}

// Killing every boundary of a 2-tile mesh leaves routed traffic no path:
// the replay aborts with the typed partition error.
func TestFullyPartitionedMeshReturnsTypedError(t *testing.T) {
	c, mesh := testMesh(t, circuits.QCLA, 2)
	cfg := mesh.Config
	cfg.Faults = deadBisection(mesh.Topology)
	_, err := Replay(c, cfg)
	if !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned 2-tile mesh error = %v, want ErrPartitioned", err)
	}
}

// The netfault grid: per link factor the makespan is monotone in damage
// (none <= degraded <= dead link), and the grid is byte-identical across
// engine worker counts.
func TestFaultSweepMonotoneAndDeterministic(t *testing.T) {
	_, mesh := testMesh(t, circuits.QCLA, 4)
	arms := []FaultPlan{nil, DegradeAllLinks(mesh.Topology, 0.75), deadBisection(mesh.Topology)}
	factors := []float64{0.5, 1, 2}
	var cells []Cell
	for _, plan := range arms {
		for _, factor := range factors {
			cells = append(cells, Cell{LinkFactor: factor, Faults: plan})
		}
	}
	points, err := Sweep(context.Background(), nil, cells, mesh)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(arms)*len(factors) {
		t.Fatalf("grid has %d points, want %d", len(points), len(arms)*len(factors))
	}
	for j, factor := range factors {
		none, deg, dead := points[j], points[len(factors)+j], points[2*len(factors)+j]
		if none.ExecutionTimeMs > deg.ExecutionTimeMs+1e-9 {
			t.Errorf("x%.2f: degraded links (%.4f ms) beat the pristine mesh (%.4f ms)",
				factor, deg.ExecutionTimeMs, none.ExecutionTimeMs)
		}
		if deg.ExecutionTimeMs > dead.ExecutionTimeMs+1e-9 {
			t.Errorf("x%.2f: dead link (%.4f ms) beat degraded links (%.4f ms)",
				factor, dead.ExecutionTimeMs, deg.ExecutionTimeMs)
		}
		if none.Faults.Reroutes != 0 || dead.Faults.Reroutes == 0 {
			t.Errorf("x%.2f: reroutes none=%d dead=%d, want 0 and >0", factor, none.Faults.Reroutes, dead.Faults.Reroutes)
		}
		if deg.Faults.DegradedLinks == 0 || deg.Faults.DegradedWaitUs < 0 {
			t.Errorf("x%.2f: degraded arm decomposition %+v", factor, deg)
		}
	}
	seq, err := Sweep(t.Context(), engine.New(1), cells, mesh)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(t.Context(), engine.New(8), cells, mesh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("fault sweep differs between 1 and 8 workers")
	}
}

// The netdegrade sweep kills boundaries until the mesh partitions: rows
// before the partition point complete with growing damage, rows after it
// report Partitioned instead of failing the sweep.
func TestDegradeSweepUntilPartition(t *testing.T) {
	_, mesh := testMesh(t, circuits.QCLA, 4)
	cells := make([]Cell, 5)
	for k := range cells {
		cells[k] = Cell{LinkFactor: 1, Faults: KillBoundaries(mesh.Topology, k)}
	}
	rows, err := Sweep(context.Background(), nil, cells, mesh)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("sweep produced %d rows, want 5 (0..4 failures)", len(rows))
	}
	if rows[0].Partitioned || rows[0].Faults.Reroutes != 0 || rows[0].Faults.FailedLinks != 0 {
		t.Errorf("pristine row = %+v", rows[0])
	}
	if rows[1].Partitioned {
		t.Error("one dead boundary on a 2x2 mesh must not partition it")
	}
	if rows[1].Faults.Reroutes == 0 {
		t.Error("one dead boundary caused no reroutes")
	}
	sawPartition := false
	for i, r := range rows {
		if r.Faults.FailedLinks != 2*i {
			t.Errorf("row %d reports %d dead links, want %d", i, r.Faults.FailedLinks, 2*i)
		}
		if sawPartition && !r.Partitioned {
			t.Errorf("row %d healed a partitioned mesh", i)
		}
		if r.Partitioned {
			sawPartition = true
		} else if r.ExecutionTimeMs < rows[0].ExecutionTimeMs-1e-9 {
			t.Errorf("row %d (%d failures) beat the pristine makespan", i, i)
		}
	}
	if !sawPartition {
		t.Error("killing all 4 boundaries of a 2x2 mesh must partition it")
	}
}

// RouteAvoiding's fallback ladder around partial-last-row holes and failed
// links, table-driven: the baseline when clear, the opposite dimension
// order when the hole forces it, a BFS detour when both orders are blocked,
// and the typed error when nothing survives.
func TestRouteAvoidingFallbackLadder(t *testing.T) {
	down := func(dead ...Link) func(Link) bool {
		return func(l Link) bool {
			for _, d := range dead {
				if l == d {
					return true
				}
			}
			return false
		}
	}
	cases := []struct {
		name        string
		topo        Topology
		a, b        int
		down        func(Link) bool
		want        []Link
		rerouted    bool
		partitioned bool
	}{
		{
			name: "clear mesh takes the X-then-Y baseline",
			topo: NewTopology(6), a: 0, b: 5, down: down(),
			want: []Link{{0, 1}, {1, 2}, {2, 5}},
		},
		{
			name: "hole in the last row forces Y-then-X as the baseline",
			topo: NewTopology(3), a: 2, b: 1, down: down(),
			want: []Link{{2, 0}, {0, 1}},
		},
		{
			name: "dead link on the X-first leg falls back to Y-then-X",
			topo: NewTopology(4), a: 0, b: 3, down: down(Link{0, 1}),
			want: []Link{{0, 2}, {2, 3}}, rerouted: true,
		},
		{
			// 3x2 mesh, tile (2,1) missing.  Tile 3 (0,1) has exactly two
			// healthy-mesh exits, 3->4 and 3->0; killing both strands it.
			name: "partial-row tile with both exits dead is partitioned",
			topo: NewTopology(5), a: 3, b: 1, down: down(Link{3, 4}, Link{3, 0}),
			partitioned: true,
		},
		{
			name: "both dimension orders dead, BFS detours the long way",
			topo: NewTopology(4), a: 0, b: 1, down: down(Link{0, 1}),
			want: []Link{{0, 2}, {2, 3}, {3, 1}}, rerouted: true,
		},
		{
			name: "two-tile mesh with its only link dead is partitioned",
			topo: NewTopology(2), a: 0, b: 1, down: down(Link{0, 1}),
			partitioned: true,
		},
		{
			name: "self route is empty even on a dead mesh",
			topo: NewTopology(4), a: 2, b: 2,
			down: down(Link{0, 1}, Link{1, 0}, Link{0, 2}, Link{2, 0}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, rerouted, err := tc.topo.RouteAvoiding(tc.a, tc.b, tc.down)
			if tc.partitioned {
				if !errors.Is(err, ErrPartitioned) {
					t.Fatalf("err = %v, want ErrPartitioned", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) || rerouted != tc.rerouted {
				t.Errorf("route = %v (rerouted=%v), want %v (rerouted=%v)", got, rerouted, tc.want, tc.rerouted)
			}
		})
	}
}

// checkRoute asserts the structural invariants every RouteAvoiding result
// must satisfy on any mesh with any failure set.
func checkRoute(t *testing.T, topo Topology, a, b int, route []Link, down func(Link) bool) {
	t.Helper()
	if a == b {
		if len(route) != 0 {
			t.Fatalf("self route %d->%d = %v, want empty", a, b, route)
		}
		return
	}
	if len(route) == 0 || len(route) > topo.TileCount()-1 {
		t.Fatalf("route %d->%d has %d links, want 1..%d", a, b, len(route), topo.TileCount()-1)
	}
	if route[0].From != a || route[len(route)-1].To != b {
		t.Fatalf("route %d->%d endpoints wrong: %v", a, b, route)
	}
	cur := a
	for _, l := range route {
		if l.From != cur {
			t.Fatalf("route %d->%d not contiguous at %v: %v", a, b, l, route)
		}
		if l.From >= topo.TileCount() || l.To >= topo.TileCount() {
			t.Fatalf("route %d->%d crosses an unpopulated tile: %v", a, b, route)
		}
		if topo.HopDistance(l.From, l.To) != 1 {
			t.Fatalf("route %d->%d takes a non-adjacent step %v", a, b, l)
		}
		if down(l) {
			t.Fatalf("route %d->%d crosses the failed link %v", a, b, l)
		}
		cur = l.To
	}
	if cur != b {
		t.Fatalf("route %d->%d ends at %d", a, b, cur)
	}
}

// FuzzRoute drives RouteAvoiding over random meshes, endpoints and failure
// sets: every returned route is hole-free, failure-free and within the
// detour bound, every failure to route is the typed partition error, and a
// healthy mesh always routes at exactly the Manhattan distance.
func FuzzRoute(f *testing.F) {
	f.Add(6, 0, 5, uint32(0))
	f.Add(3, 2, 1, uint32(0))
	f.Add(4, 0, 3, uint32(0b11))
	f.Add(9, 8, 0, uint32(0xffff))
	f.Fuzz(func(t *testing.T, n, a, b int, downMask uint32) {
		if n < 1 || n > 16 {
			return
		}
		topo := NewTopology(n)
		if a < 0 || a >= n || b < 0 || b >= n {
			return
		}
		links := topo.Links()
		down := func(l Link) bool {
			for i, cand := range links {
				if cand == l {
					return downMask&(1<<(uint(i)%32)) != 0
				}
			}
			return false
		}
		route, rerouted, err := topo.RouteAvoiding(a, b, down)
		if err != nil {
			if !errors.Is(err, ErrPartitioned) {
				t.Fatalf("n=%d %d->%d: err = %v, want ErrPartitioned", n, a, b, err)
			}
			return
		}
		checkRoute(t, topo, a, b, route, down)
		if !rerouted && len(route) != topo.HopDistance(a, b) {
			t.Fatalf("n=%d %d->%d: un-rerouted route length %d != distance %d",
				n, a, b, len(route), topo.HopDistance(a, b))
		}
		if downMask == 0 {
			if rerouted {
				t.Fatalf("n=%d %d->%d: healthy mesh reported a reroute", n, a, b)
			}
			if !reflect.DeepEqual(route, topo.Route(a, b)) {
				t.Fatalf("n=%d %d->%d: healthy RouteAvoiding %v != Route %v",
					n, a, b, route, topo.Route(a, b))
			}
		}
	})
}

func TestFaultPlanValidate(t *testing.T) {
	topo := NewTopology(4)
	good := FaultPlan{
		{Link: Link{0, 1}, Dead: true},
		{Link: Link{1, 0}, RateFactor: 0.5},
	}
	if err := good.Validate(topo); err != nil {
		t.Fatalf("good plan invalid: %v", err)
	}
	bad := []FaultPlan{
		{{Link: Link{0, 3}, Dead: true}},      // not adjacent
		{{Link: Link{0, 7}, Dead: true}},      // off the mesh
		{{Link: Link{-1, 0}, Dead: true}},     // negative tile
		{{Link: Link{0, 1}, RateFactor: 0}},   // zero factor
		{{Link: Link{0, 1}, RateFactor: 1}},   // no-op factor
		{{Link: Link{0, 1}, RateFactor: 1.5}}, // speed-up
	}
	for i, p := range bad {
		if err := p.Validate(topo); err == nil {
			t.Errorf("bad plan %d (%+v) validated", i, p[0])
		}
	}
	// Config.Validate wires the plan check in.
	m := schedule.DefaultLatencyModel()
	cfg, err := PlanConfig(m, 16, 4, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = FaultPlan{{Link: Link{0, 3}, Dead: true}}
	if err := cfg.Validate(); err == nil {
		t.Error("config with an off-mesh fault validated")
	}
}

func TestFaultPlanHelpers(t *testing.T) {
	topo := NewTopology(4) // 2x2
	boundary, ok := BisectionBoundary(topo)
	if !ok || boundary[0] != (Link{0, 1}) || boundary[1] != (Link{1, 0}) {
		t.Errorf("2x2 bisection boundary = %v, %v", boundary, ok)
	}
	if _, ok := BisectionBoundary(NewTopology(1)); ok {
		t.Error("1-tile mesh has no boundary")
	}
	want := []Link{{0, 1}, {0, 2}, {1, 3}, {2, 3}}
	if got := Boundaries(topo); !reflect.DeepEqual(got, want) {
		t.Errorf("2x2 boundaries = %v, want %v", got, want)
	}
	if plan := KillBoundaries(topo, 1); len(plan) != 2 || !plan[0].Dead || !plan[1].Dead {
		t.Errorf("KillBoundaries(1) = %+v", plan)
	}
	if plan := KillBoundaries(topo, 99); len(plan) != 8 {
		t.Errorf("KillBoundaries past the end produced %d faults, want 8", len(plan))
	}
	if plan := DegradeAllLinks(topo, 0.75); len(plan) != len(topo.Links()) {
		t.Errorf("DegradeAllLinks covered %d links, want %d", len(plan), len(topo.Links()))
	}
	// On a 2x2 mesh the first boundary is the bisection boundary, so
	// netdegrade's one-failure cell is netfault's dead-link cell.
	dead := FaultPlan{{Link: boundary[0], Dead: true}, {Link: boundary[1], Dead: true}}
	if plan := KillBoundaries(topo, 1); !reflect.DeepEqual(plan, dead) {
		t.Errorf("KillBoundaries(1) = %+v, want the dead bisection %+v", plan, dead)
	}
}

func TestMatchedLinkEPRPerMsDegenerate(t *testing.T) {
	m := schedule.DefaultLatencyModel()
	c, err := circuits.Generate(circuits.QCLA, 8)
	if err != nil {
		t.Fatal(err)
	}
	onePart := Partition{TileOf: make([]int, c.NumQubits), Tiles: 1}
	if got := MatchedLinkEPRPerMs(c, m, NewTopology(1), onePart); got != 0 {
		t.Errorf("1-tile mesh matched rate = %v, want 0 (no links)", got)
	}
	topo := NewTopology(4)
	// Every qubit on tile 0: no cross-tile traffic, so hops == 0.
	local := Partition{TileOf: make([]int, c.NumQubits), Tiles: 4}
	if got := MatchedLinkEPRPerMs(c, m, topo, local); got != 0 {
		t.Errorf("local-only matched rate = %v, want 0 (no hops)", got)
	}
	// A gateless circuit has no dataflow time.
	empty := quantum.NewCircuit("empty", 8)
	part := Partition{TileOf: make([]int, 8), Tiles: 4}
	if got := MatchedLinkEPRPerMs(empty, m, topo, part); got != 0 {
		t.Errorf("empty-circuit matched rate = %v, want 0 (no dataflow time)", got)
	}
}
