package layout

import (
	"math"
	"testing"
	"testing/quick"

	"speedofdata/internal/iontrap"
	"speedofdata/internal/steane"
)

func TestDataRegionAreaMatchesTable9(t *testing.T) {
	// Table 9 data areas: 97 qubits -> 679, 123 -> 861, 32 -> 224.
	cases := map[int]iontrap.Area{97: 679, 123: 861, 32: 224, 0: 0}
	for n, want := range cases {
		if got := DataRegionArea(n); got != want {
			t.Errorf("DataRegionArea(%d) = %v, want %v", n, got, want)
		}
	}
	if DataRegionArea(-3) != 0 {
		t.Error("negative qubit count should give zero area")
	}
}

func TestDefaultMovementModel(t *testing.T) {
	tech := iontrap.Default()
	m := DefaultMovementModel(tech, 16)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.BallisticPerGateUs <= 0 || m.TeleportUs <= 0 {
		t.Error("movement latencies must be positive")
	}
	// Teleportation must be substantially more expensive than ballistic
	// movement (that is the premise of keeping data regions dense).
	if float64(m.TeleportUs) < 1.5*float64(m.BallisticPerGateUs) {
		t.Errorf("teleport (%v) should cost more than ballistic movement (%v)", m.TeleportUs, m.BallisticPerGateUs)
	}
	if m.TeleportAncillae < 2 {
		t.Errorf("teleport should consume extra ancillae, got %d", m.TeleportAncillae)
	}
	// Degenerate region size still yields a valid model.
	if err := DefaultMovementModel(tech, 0).Validate(); err != nil {
		t.Error(err)
	}
}

func TestMovementModelValidate(t *testing.T) {
	bad := MovementModel{BallisticPerGateUs: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative ballistic latency should be invalid")
	}
	bad = MovementModel{TeleportAncillae: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative teleport ancillae should be invalid")
	}
}

// pi8BandwidthPerMs is the encoded-π/8 production rate of the tiles, every
// π/8 factory at its design throughput.
func pi8BandwidthPerMs(tiles ...Tile) float64 {
	total := 0.0
	for _, t := range tiles {
		total += float64(t.Pi8Factories) * t.Pi8Design.ThroughputPerMs
	}
	return total
}

func TestPlanTile(t *testing.T) {
	tech := iontrap.Default()
	tile, err := PlanTile(tech, 32, 36.8, 8.6)
	if err != nil {
		t.Fatal(err)
	}
	if tile.DataArea() != 224 {
		t.Errorf("tile data area = %v, want 224", tile.DataArea())
	}
	// 36.8 + 8.6 zeros/ms needs ceil(45.4/10.5) = 5 zero factories; 8.6
	// π/8/ms needs 1 π/8 factory.
	if tile.ZeroFactories != 5 {
		t.Errorf("zero factories = %d, want 5", tile.ZeroFactories)
	}
	if tile.Pi8Factories != 1 {
		t.Errorf("π/8 factories = %d, want 1", tile.Pi8Factories)
	}
	if tile.FactoryArea() != iontrap.Area(5*298+403) {
		t.Errorf("factory area = %v, want %v", tile.FactoryArea(), 5*298+403)
	}
	if tile.TotalArea() != tile.DataArea()+tile.FactoryArea() {
		t.Error("total area should be data + factory area")
	}
	// Net zero bandwidth: 5*10.5 minus the π/8 factory's consumption.
	if tile.ZeroBandwidthPerMs() <= 30 || tile.ZeroBandwidthPerMs() >= 5*10.6 {
		t.Errorf("net zero bandwidth = %v", tile.ZeroBandwidthPerMs())
	}
	if bw := pi8BandwidthPerMs(tile); math.Abs(bw-18.3) > 0.2 {
		t.Errorf("π/8 bandwidth = %v, want one factory's 18.3", bw)
	}
	// The factory area dominates the data area, the paper's headline
	// observation (Table 9, Figure 14c).
	if tile.FactoryArea() < 3*tile.DataArea() {
		t.Error("ancilla factories should dominate the tile area")
	}
}

func TestPlanTileErrors(t *testing.T) {
	tech := iontrap.Default()
	if _, err := PlanTile(tech, 0, 1, 1); err == nil {
		t.Error("zero data qubits should fail")
	}
	if _, err := PlanTile(tech, 4, -1, 0); err == nil {
		t.Error("negative demand should fail")
	}
}

func TestPlanQalypso(t *testing.T) {
	tech := iontrap.Default()
	q, err := PlanQalypso(tech, 97, 32, 34.8, 7.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tiles) != 4 {
		t.Fatalf("97 qubits at 32 per tile should give 4 tiles, got %d", len(q.Tiles))
	}
	totalQubits := 0
	for _, tile := range q.Tiles {
		totalQubits += tile.DataQubits
	}
	if totalQubits != 97 {
		t.Errorf("tiles hold %d qubits, want 97", totalQubits)
	}
	var dataArea, factoryArea iontrap.Area
	for _, tile := range q.Tiles {
		dataArea += tile.DataArea()
		factoryArea += tile.FactoryArea()
	}
	if dataArea != DataRegionArea(97) {
		t.Errorf("data area = %v, want %v", dataArea, DataRegionArea(97))
	}
	if q.TotalArea() != dataArea+factoryArea {
		t.Error("total area mismatch")
	}
	// Provisioned bandwidth must cover the demand.
	if q.ZeroBandwidthPerMs() < 34.8 {
		t.Errorf("net zero bandwidth %v does not cover the 34.8/ms demand", q.ZeroBandwidthPerMs())
	}
	if bw := pi8BandwidthPerMs(q.Tiles...); bw < 7.0 {
		t.Errorf("π/8 bandwidth %v does not cover the 7.0/ms demand", bw)
	}
	if err := q.Movement.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPlanQalypsoErrors(t *testing.T) {
	tech := iontrap.Default()
	if _, err := PlanQalypso(tech, 0, 16, 1, 1); err == nil {
		t.Error("no data qubits should fail")
	}
	if _, err := PlanQalypso(tech, 10, 0, 1, 1); err == nil {
		t.Error("zero tile size should fail")
	}
}

// Property: a Qalypso plan always provisions at least the requested
// bandwidth and its area grows monotonically with the demand.
func TestQalypsoProvisioningProperty(t *testing.T) {
	tech := iontrap.Default()
	f := func(zRaw, pRaw uint8) bool {
		zero := float64(zRaw%120) + 1
		pi8 := float64(pRaw % 40)
		q, err := PlanQalypso(tech, 64, 16, zero, pi8)
		if err != nil {
			return false
		}
		if q.ZeroBandwidthPerMs() < zero-1e-9 {
			return false
		}
		if pi8BandwidthPerMs(q.Tiles...) < pi8-1e-9 {
			return false
		}
		bigger, err := PlanQalypso(tech, 64, 16, zero*2, pi8)
		if err != nil {
			return false
		}
		return bigger.TotalArea() >= q.TotalArea()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Edge cases: empty circuits, single-qubit layouts, zero demand.
func TestDataRegionAreaEdgeCases(t *testing.T) {
	if DataRegionArea(0) != 0 {
		t.Error("an empty circuit needs no data region")
	}
	if DataRegionArea(-3) != 0 {
		t.Error("negative qubit counts clamp to zero area")
	}
	if DataRegionArea(1) != iontrap.Area(steane.N) {
		t.Errorf("a single logical qubit occupies %d macroblocks, got %v", steane.N, DataRegionArea(1))
	}
}

func TestDefaultMovementModelDegenerateRegion(t *testing.T) {
	tech := iontrap.Default()
	// Region sizes at and below one qubit clamp to the single-qubit layout.
	one := DefaultMovementModel(tech, 1)
	zero := DefaultMovementModel(tech, 0)
	neg := DefaultMovementModel(tech, -5)
	if one != zero || one != neg {
		t.Errorf("degenerate regions should clamp to the 1-qubit model: %+v / %+v / %+v", one, zero, neg)
	}
	if one.BallisticPerGateUs <= 0 || one.TeleportUs <= one.BallisticPerGateUs {
		t.Errorf("single-qubit model not physical: %+v", one)
	}
	if err := one.Validate(); err != nil {
		t.Errorf("single-qubit model invalid: %v", err)
	}
}

func TestPlanTileSingleQubitZeroDemand(t *testing.T) {
	tech := iontrap.Default()
	tile, err := PlanTile(tech, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tile.ZeroFactories != 0 || tile.Pi8Factories != 0 {
		t.Errorf("zero demand should provision no factories: %+v", tile)
	}
	if tile.TotalArea() != tile.DataArea() {
		t.Errorf("a factory-less tile is all data: total %v, data %v", tile.TotalArea(), tile.DataArea())
	}
	if tile.ZeroBandwidthPerMs() != 0 || pi8BandwidthPerMs(tile) != 0 {
		t.Errorf("no factories, no bandwidth: %+v", tile)
	}
}

func TestPlanQalypsoSingleQubit(t *testing.T) {
	tech := iontrap.Default()
	q, err := PlanQalypso(tech, 1, 32, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tiles) != 1 {
		t.Fatalf("one qubit fits one tile, got %d", len(q.Tiles))
	}
	if q.Tiles[0].DataQubits != 1 {
		t.Errorf("tile should hold the single qubit: %+v", q.Tiles[0])
	}
	if q.ZeroBandwidthPerMs() < 5 {
		t.Errorf("tile under-provisioned: %v < 5", q.ZeroBandwidthPerMs())
	}
}

func TestMeshDims(t *testing.T) {
	cases := []struct{ n, cols, rows int }{
		{0, 0, 0}, {-1, 0, 0}, {1, 1, 1}, {2, 2, 1}, {3, 2, 2}, {4, 2, 2},
		{5, 3, 2}, {6, 3, 2}, {9, 3, 3}, {10, 4, 3}, {16, 4, 4},
	}
	for _, c := range cases {
		cols, rows := MeshDims(c.n)
		if cols != c.cols || rows != c.rows {
			t.Errorf("MeshDims(%d) = (%d, %d), want (%d, %d)", c.n, cols, rows, c.cols, c.rows)
		}
		if c.n > 0 {
			if cols*rows < c.n {
				t.Errorf("MeshDims(%d) = %dx%d does not cover the tiles", c.n, cols, rows)
			}
			if cols*(rows-1) >= c.n {
				t.Errorf("MeshDims(%d) = %dx%d leaves a whole row empty", c.n, cols, rows)
			}
		}
	}
}

func TestLinkPortsAndEPRBandwidth(t *testing.T) {
	tech := iontrap.Default()
	tile, err := PlanTile(tech, 32, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	ports := tile.LinkPorts()
	wantSide := int(math.Ceil(math.Sqrt(float64(tile.TotalArea()))))
	if ports != wantSide {
		t.Errorf("LinkPorts = %d, want footprint side %d", ports, wantSide)
	}
	// A degenerate tile still exposes at least one port.
	if (Tile{}).LinkPorts() < 1 {
		t.Error("empty tile should still have one port")
	}

	q, err := PlanQalypso(tech, 64, 32, 200, 20)
	if err != nil {
		t.Fatal(err)
	}
	// One pair per teleport latency per edge port.
	want := float64(q.Tiles[0].LinkPorts()) * 1000.0 / float64(q.Movement.TeleportUs)
	if got := q.LinkEPRPerMs(); math.Abs(got-want) > 1e-9 {
		t.Errorf("LinkEPRPerMs = %v, want %v", got, want)
	}
	if (Qalypso{}).LinkEPRPerMs() != 0 {
		t.Error("tile-less machine should report zero link bandwidth")
	}
	zeroTele := q
	zeroTele.Movement.TeleportUs = 0
	if zeroTele.LinkEPRPerMs() != 0 {
		t.Error("zero teleport latency should report zero link bandwidth")
	}
}

func TestMovementModelValidateRejectsNonFinite(t *testing.T) {
	good := DefaultMovementModel(iontrap.Default(), 32)
	if err := good.Validate(); err != nil {
		t.Fatalf("default movement model invalid: %v", err)
	}
	for _, m := range []MovementModel{
		{BallisticPerGateUs: iontrap.Microseconds(math.NaN())},
		{TeleportUs: iontrap.Microseconds(math.Inf(1))},
		{BallisticPerGateUs: iontrap.Microseconds(math.Inf(-1))},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("%+v should be invalid", m)
		}
	}
}
