package microarch

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"speedofdata/internal/circuits"
	"speedofdata/internal/engine"
	"speedofdata/internal/iontrap"
	"speedofdata/internal/network"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
)

func benchmarkCircuit(t *testing.T, b circuits.Benchmark, bits int) *quantum.Circuit {
	t.Helper()
	c, err := circuits.Generate(b, bits)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestArchitectureNames(t *testing.T) {
	if QLA.String() != "QLA" || FullyMultiplexed.String() != "Fully-Multiplexed" {
		t.Error("architecture names wrong")
	}
	if len(Architectures()) != 5 {
		t.Error("expected 5 architectures")
	}
	if Architecture(99).String() == "" {
		t.Error("unknown architecture should still render")
	}
}

func TestConfigValidate(t *testing.T) {
	for _, arch := range Architectures() {
		cfg := DefaultConfig(arch)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v default config invalid: %v", arch, err)
		}
	}
	bad := DefaultConfig(QLA)
	bad.GeneratorsPerQubit = 0
	if err := bad.Validate(); err == nil {
		t.Error("QLA without generators should be invalid")
	}
	bad = DefaultConfig(CQLA)
	bad.CacheSlots = 0
	if err := bad.Validate(); err == nil {
		t.Error("CQLA without cache should be invalid")
	}
	bad = DefaultConfig(FullyMultiplexed)
	bad.SharedFactories = 0
	if err := bad.Validate(); err == nil {
		t.Error("FM without factories should be invalid")
	}
	bad = DefaultConfig(FullyMultiplexed)
	bad.Pi8BandwidthPerMs = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative π/8 bandwidth should be invalid")
	}
	bad = DefaultConfig(FullyMultiplexed)
	bad.Arch = Architecture(42)
	if err := bad.Validate(); err == nil {
		t.Error("unknown architecture should be invalid")
	}
}

func TestAncillaFactoryArea(t *testing.T) {
	cfg := DefaultConfig(QLA)
	if got := float64(cfg.AncillaFactoryArea(97)); got != 97*90 {
		t.Errorf("QLA area = %v, want %v", got, 97*90)
	}
	cfg = DefaultConfig(FullyMultiplexed)
	cfg.SharedFactories = 4
	if got := float64(cfg.AncillaFactoryArea(97)); got != 4*298 {
		t.Errorf("FM area = %v, want %v", got, 4*298)
	}
	cfg = DefaultConfig(CQLA)
	cfg.CacheSlots = 16
	cfg.GeneratorsPerQubit = 2
	if got := float64(cfg.AncillaFactoryArea(97)); got != 16*2*90 {
		t.Errorf("CQLA area = %v, want %v", got, 16*2*90)
	}
	// Including the π/8 supply adds the Table 9 accounting.
	cfg = DefaultConfig(FullyMultiplexed)
	cfg.Pi8BandwidthPerMs = 7.0
	withPi8 := float64(cfg.AncillaFactoryArea(97))
	if withPi8 <= 298 || withPi8 >= 298+500 {
		t.Errorf("area with π/8 supply = %v, expected 298 + ~355", withPi8)
	}
}

func TestSimulateEmptyCircuit(t *testing.T) {
	c := quantum.NewCircuit("empty", 3)
	res, err := Simulate(c, DefaultConfig(FullyMultiplexed))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecutionTime != 0 || res.AncillaeConsumed != 0 {
		t.Errorf("empty circuit result = %+v", res)
	}
}

func TestSimulateFullyMultiplexedApproachesSpeedOfData(t *testing.T) {
	c := benchmarkCircuit(t, circuits.QRCA, 8)
	ch, err := schedule.Characterize(c, schedule.DefaultLatencyModel())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(FullyMultiplexed)
	// Provision far more factory bandwidth than the average demand.
	cfg.SharedFactories = 64
	res, err := Simulate(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sod := float64(ch.SpeedOfDataTime)
	if float64(res.ExecutionTime) < sod {
		t.Errorf("simulated time %v is below the speed-of-data bound %v", res.ExecutionTime, sod)
	}
	// Ballistic movement adds some overhead, but with abundant ancillae the
	// execution should stay within ~2x of the data-dependency bound.
	if float64(res.ExecutionTime) > 2*sod {
		t.Errorf("simulated time %v should approach the speed of data %v with abundant factories",
			res.ExecutionTime, sod)
	}
}

func TestSimulateMoreFactoriesNeverSlower(t *testing.T) {
	c := benchmarkCircuit(t, circuits.QRCA, 8)
	cfg := DefaultConfig(FullyMultiplexed)
	var prev float64 = math.Inf(1)
	for _, f := range []int{1, 2, 4, 8, 16} {
		cfg.SharedFactories = f
		res, err := Simulate(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExecutionTimeMs() > prev*1.0001 {
			t.Errorf("execution time increased when adding factories (%d): %v -> %v",
				f, prev, res.ExecutionTimeMs())
		}
		prev = res.ExecutionTimeMs()
	}
}

func TestQLAUsesTeleportationAndCQLAMisses(t *testing.T) {
	c := benchmarkCircuit(t, circuits.QRCA, 8)
	qla, err := Simulate(c, DefaultConfig(QLA))
	if err != nil {
		t.Fatal(err)
	}
	if qla.Teleports == 0 {
		t.Error("QLA should teleport operands for two-qubit gates")
	}
	cqlaCfg := DefaultConfig(CQLA)
	cqlaCfg.CacheSlots = 4
	cqla, err := Simulate(c, cqlaCfg)
	if err != nil {
		t.Fatal(err)
	}
	if cqla.CacheMisses == 0 {
		t.Error("a small CQLA cache should miss")
	}
	fm, err := Simulate(c, DefaultConfig(FullyMultiplexed))
	if err != nil {
		t.Fatal(err)
	}
	if fm.Teleports != 0 || fm.CacheMisses != 0 {
		t.Error("fully-multiplexed distribution should not teleport or miss")
	}
}

func TestFigure15Shape(t *testing.T) {
	// The paper's Figure 15 conclusions, checked on the 32-bit QCLA (the
	// most parallel benchmark, where the contrast is sharpest):
	//  1. Fully-Multiplexed reaches its plateau with far less ancilla
	//     factory area than GQLA needs (the paper reports about two orders
	//     of magnitude for the generators-per-qubit organisation).
	//  2. CQLA/GCQLA plateau well above Fully-Multiplexed (cache misses stay
	//     on the critical path no matter how fast ancillae are produced).
	//  3. GQLA eventually plateaus within a small factor of Fully-Multiplexed.
	//  4. At comparable (or less) area than the original QLA proposal, the
	//     fully-multiplexed organisation is more than ~5x faster (the
	//     abstract's headline claim).
	c := benchmarkCircuit(t, circuits.QCLA, 32)
	base := DefaultConfig(FullyMultiplexed)
	base.CacheSlots = 16
	curves, err := Figure15Engine(context.Background(), nil, c, Figure15Config{Base: base, MaxScale: 64})
	if err != nil {
		t.Fatal(err)
	}
	fm := curves[FullyMultiplexed]
	gqla := curves[GQLA]
	gcqla := curves[GCQLA]
	if len(fm.Points) == 0 || len(gqla.Points) == 0 || len(gcqla.Points) == 0 {
		t.Fatal("missing curves")
	}

	fmPlateau := PlateauTimeMs(fm)
	gqlaPlateau := PlateauTimeMs(gqla)
	gcqlaPlateau := PlateauTimeMs(gcqla)

	// (3) GQLA plateaus within a small factor of FM.
	if gqlaPlateau > 2.5*fmPlateau {
		t.Errorf("GQLA plateau %v ms should be near the FM plateau %v ms", gqlaPlateau, fmPlateau)
	}
	// (2) GCQLA plateaus clearly above FM (cache misses).
	if gcqlaPlateau < 1.5*fmPlateau {
		t.Errorf("GCQLA plateau %v ms should sit clearly above the FM plateau %v ms", gcqlaPlateau, fmPlateau)
	}
	// (1) Area to get within 1.5x of each curve's own plateau: FM needs at
	// least several times less than GQLA.
	fmArea := AreaToReach(fm, 1.5)
	gqlaArea := AreaToReach(gqla, 1.5)
	if fmArea*5 > gqlaArea {
		t.Errorf("FM should reach its plateau with far less area: FM %v vs GQLA %v macroblocks", fmArea, gqlaArea)
	}

	// QLA and CQLA as proposed are single points.
	if len(curves[QLA].Points) != 1 || len(curves[CQLA].Points) != 1 {
		t.Error("QLA and CQLA should be single configurations")
	}
	// (4) Headline claim: at comparable area, the fully-multiplexed
	// organisation is several times faster than the original QLA proposal.
	qlaPoint := curves[QLA].Points[0]
	var fmAtSimilarArea *CurvePoint
	for i := range fm.Points {
		if fm.Points[i].AreaMacroblocks <= qlaPoint.AreaMacroblocks {
			fmAtSimilarArea = &fm.Points[i]
		}
	}
	if fmAtSimilarArea == nil {
		t.Fatal("no FM point at or below the QLA area")
	}
	if qlaPoint.ExecutionTimeMs < 5*fmAtSimilarArea.ExecutionTimeMs {
		t.Errorf("FM at similar area (%.0f mb, %.2f ms) should be >5x faster than QLA (%.0f mb, %.2f ms)",
			fmAtSimilarArea.AreaMacroblocks, fmAtSimilarArea.ExecutionTimeMs,
			qlaPoint.AreaMacroblocks, qlaPoint.ExecutionTimeMs)
	}
	// The CQLA proposal is also several times slower than FM at similar area.
	cqlaPoint := curves[CQLA].Points[0]
	var fmAtCqlaArea *CurvePoint
	for i := range fm.Points {
		if fm.Points[i].AreaMacroblocks <= cqlaPoint.AreaMacroblocks {
			fmAtCqlaArea = &fm.Points[i]
		}
	}
	if fmAtCqlaArea == nil {
		t.Fatal("no FM point at or below the CQLA area")
	}
	if cqlaPoint.ExecutionTimeMs < 2*fmAtCqlaArea.ExecutionTimeMs {
		t.Errorf("FM at similar area (%.0f mb, %.2f ms) should be well ahead of CQLA (%.0f mb, %.2f ms)",
			fmAtCqlaArea.AreaMacroblocks, fmAtCqlaArea.ExecutionTimeMs,
			cqlaPoint.AreaMacroblocks, cqlaPoint.ExecutionTimeMs)
	}
}

func TestSweepErrors(t *testing.T) {
	c := benchmarkCircuit(t, circuits.QRCA, 4)
	if _, err := SweepEngine(context.Background(), nil, c, DefaultConfig(FullyMultiplexed), nil); err == nil {
		t.Error("empty sweep should fail")
	}
	if _, err := SweepEngine(context.Background(), nil, c, DefaultConfig(FullyMultiplexed), []int{0}); err == nil {
		t.Error("non-positive scale should fail")
	}
	bad := DefaultConfig(QLA)
	bad.GeneratorsPerQubit = -1
	if _, err := Simulate(c, bad); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestDefaultScales(t *testing.T) {
	scales := DefaultScales(16)
	want := []int{1, 2, 4, 8, 16}
	if len(scales) != len(want) {
		t.Fatalf("scales = %v", scales)
	}
	for i, s := range want {
		if scales[i] != s {
			t.Errorf("scales[%d] = %d, want %d", i, scales[i], s)
		}
	}
	if len(DefaultScales(0)) != 1 {
		t.Error("degenerate max should yield a single scale")
	}
}

func TestLRUCache(t *testing.T) {
	cache := newLRUCache(2)
	miss, evicted := cache.touch(1)
	if !miss || evicted >= 0 {
		t.Error("first access should miss without eviction")
	}
	miss, evicted = cache.touch(2)
	if !miss || evicted >= 0 {
		t.Error("second access should miss without eviction")
	}
	miss, _ = cache.touch(1)
	if miss {
		t.Error("resident qubit should hit")
	}
	miss, evicted = cache.touch(3)
	if !miss || evicted != 2 {
		t.Errorf("capacity exceeded should evict the LRU qubit 2, got %d", evicted)
	}
	// Qubit 2 was least recently used and must be gone; 1 must remain.
	if m, _ := cache.touch(1); m {
		t.Error("recently used qubit should still be resident")
	}
	if m, _ := cache.touch(2); !m {
		t.Error("evicted qubit should miss")
	}
}

// Property: execution time never beats the pure dataflow bound and ancilla
// consumption is at least two per gate, for every architecture.
func TestSimulationBoundsProperty(t *testing.T) {
	c := benchmarkCircuit(t, circuits.QRCA, 4)
	ch, err := schedule.Characterize(c, schedule.DefaultLatencyModel())
	if err != nil {
		t.Fatal(err)
	}
	archs := Architectures()
	f := func(archRaw, scaleRaw uint8) bool {
		arch := archs[int(archRaw)%len(archs)]
		cfg := DefaultConfig(arch)
		scale := int(scaleRaw%6) + 1
		cfg.GeneratorsPerQubit = scale
		cfg.SharedFactories = scale
		res, err := Simulate(c, cfg)
		if err != nil {
			return false
		}
		if float64(res.ExecutionTime) < float64(ch.SpeedOfDataTime)-1e-6 {
			return false
		}
		return res.AncillaeConsumed >= 2*c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The parallel grid must regroup into exactly the curves the sequential
// sweep produces, point for point, and repeated grids must hit the engine's
// result cache.
func TestFigure15EngineMatchesSequential(t *testing.T) {
	c := benchmarkCircuit(t, circuits.QCLA, 8)
	base := DefaultConfig(FullyMultiplexed)
	base.CacheSlots = 8
	cfg := Figure15Config{Base: base, MaxScale: 16}
	seq, err := Figure15Engine(context.Background(), nil, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(4)
	par, err := Figure15Engine(context.Background(), eng, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seq) {
		t.Fatalf("parallel produced %d curves, sequential %d", len(par), len(seq))
	}
	for arch, want := range seq {
		got := par[arch]
		if len(got.Points) != len(want.Points) {
			t.Fatalf("%v: %d points != %d", arch, len(got.Points), len(want.Points))
		}
		for i := range want.Points {
			if got.Points[i] != want.Points[i] {
				t.Errorf("%v point %d: parallel %+v != sequential %+v", arch, i, got.Points[i], want.Points[i])
			}
		}
	}
	// Re-running the same grid on the same engine must be served from cache.
	if _, err := Figure15Engine(context.Background(), eng, c, cfg); err != nil {
		t.Fatal(err)
	}
	hits, _ := eng.CacheStats()
	if hits == 0 {
		t.Error("repeated Figure 15 grid should hit the engine cache")
	}
}

func TestSweepEngineCancellation(t *testing.T) {
	c := benchmarkCircuit(t, circuits.QRCA, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SweepEngine(ctx, engine.New(2), c, DefaultConfig(FullyMultiplexed), DefaultScales(16)); err == nil {
		t.Error("cancelled sweep must report the context error")
	}
}

func TestParseArchitecture(t *testing.T) {
	cases := map[string]Architecture{
		"QLA":               QLA,
		"qla":               QLA,
		"gqla":              GQLA,
		"CQLA":              CQLA,
		"gcqla":             GCQLA,
		"Fully-Multiplexed": FullyMultiplexed,
		"fullymultiplexed":  FullyMultiplexed,
		"fully_multiplexed": FullyMultiplexed,
		"fm":                FullyMultiplexed,
	}
	for in, want := range cases {
		got, err := ParseArchitecture(in)
		if err != nil || got != want {
			t.Errorf("ParseArchitecture(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseArchitecture("warp"); err == nil {
		t.Error("unknown architecture should fail")
	}
	// Every presentation-order architecture must round-trip its legend name.
	for _, a := range Architectures() {
		got, err := ParseArchitecture(a.String())
		if err != nil || got != a {
			t.Errorf("round-trip %v failed: %v, %v", a, got, err)
		}
	}
}

// Non-physical movement parameters must fail Config.Validate (and therefore
// Simulate) up front instead of leaking negative or NaN latencies into
// makespans.
func TestConfigRejectsNonPhysicalMovement(t *testing.T) {
	c := benchmarkCircuit(t, circuits.QRCA, 4)
	for _, mutate := range []func(*Config){
		func(cfg *Config) { cfg.Movement.TeleportUs = -1 },
		func(cfg *Config) { cfg.Movement.BallisticPerGateUs = iontrap.Microseconds(math.NaN()) },
		func(cfg *Config) { cfg.Movement.TeleportUs = iontrap.Microseconds(math.Inf(1)) },
		func(cfg *Config) { cfg.Movement.TeleportAncillae = -1 },
	} {
		cfg := DefaultConfig(QLA)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg.Movement)
		}
		if _, err := Simulate(c, cfg); err == nil {
			t.Errorf("Simulate accepted non-physical movement %+v", cfg.Movement)
		}
	}
}

// With a mesh configured, teleport accounting delegates to the network cost
// model: a 1x1 mesh reproduces the flat model bit for bit, and a spread-out
// mesh pays routed multi-hop teleports, so it can only slow execution down
// and consume more ancillae.
func TestNetworkDelegatedTeleportAccounting(t *testing.T) {
	c := benchmarkCircuit(t, circuits.QCLA, 8)
	for _, arch := range []Architecture{QLA, CQLA} {
		flatCfg := DefaultConfig(arch)
		flat, err := Simulate(c, flatCfg)
		if err != nil {
			t.Fatal(err)
		}

		oneTile := flatCfg
		oneTile.Network = network.Topology{Cols: 1, Rows: 1, TileQubits: c.NumQubits}
		same, err := Simulate(c, oneTile)
		if err != nil {
			t.Fatal(err)
		}
		if same != flat {
			t.Errorf("%v: 1x1 mesh diverged from the flat model:\n got %+v\nwant %+v", arch, same, flat)
		}

		spread := flatCfg
		spread.Network = network.Topology{Cols: 2, Rows: 2, TileQubits: (c.NumQubits + 3) / 4}
		routed, err := Simulate(c, spread)
		if err != nil {
			t.Fatal(err)
		}
		if routed.ExecutionTime < flat.ExecutionTime {
			t.Errorf("%v: routed teleports sped execution up (%v < %v)", arch, routed.ExecutionTime, flat.ExecutionTime)
		}
		if routed.AncillaeConsumed < flat.AncillaeConsumed {
			t.Errorf("%v: routed teleports consumed fewer ancillae (%d < %d)",
				arch, routed.AncillaeConsumed, flat.AncillaeConsumed)
		}
		if routed.Teleports != flat.Teleports {
			t.Errorf("%v: routing changed the teleport count (%d != %d)", arch, routed.Teleports, flat.Teleports)
		}

		// The closed form shares the cost model, so the parity guarantee
		// holds with a mesh configured too.
		closed, err := SimulateClosedForm(c, spread)
		if err != nil {
			t.Fatal(err)
		}
		if closed.ExecutionTime != routed.ExecutionTime {
			t.Errorf("%v: mesh broke event/closed-form parity (%v != %v)",
				arch, closed.ExecutionTime, routed.ExecutionTime)
		}
	}

	bad := DefaultConfig(QLA)
	bad.Network = network.Topology{Cols: 0, Rows: 1, TileQubits: 1}
	if _, err := Simulate(c, bad); err == nil {
		t.Error("invalid mesh topology should fail validation")
	}
}

// Buffered replays allocate a constant handful per run too: the pooled run
// state and the resources' reused request and waiter arrays make each
// count the same at 8 and 16 bits (QRCA: 482 and 994 gates), buffers of 16.
func TestBufferedReplaysSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop objects at random")
	}
	m := schedule.DefaultLatencyModel()
	replays := []struct {
		name  string
		setup func(c *quantum.Circuit, zeroPerMs float64) (func() error, error)
	}{
		{"Fully-Multiplexed Simulate", func(c *quantum.Circuit, _ float64) (func() error, error) {
			cfg := DefaultConfig(FullyMultiplexed)
			cfg.BufferAncillae = 16
			return func() error { _, err := Simulate(c, cfg); return err }, nil
		}},
		{"schedule.Replay", func(c *quantum.Circuit, zeroPerMs float64) (func() error, error) {
			supply := schedule.Supply{RatePerMs: zeroPerMs, BufferAncillae: 16}
			return func() error { _, err := schedule.Replay(c, m, supply); return err }, nil
		}},
		{"4-tile network.Replay", func(c *quantum.Circuit, zeroPerMs float64) (func() error, error) {
			cfg, err := network.PlanConfig(m, c.NumQubits, 4, zeroPerMs*2, 0)
			if err != nil {
				return nil, err
			}
			cfg.LinkBufferPairs = 16
			part, err := network.PartitionCircuit(c, len(cfg.Machine.Tiles))
			cfg.Partitions = []network.Partition{part}
			return func() error { _, err := network.Replay(c, cfg); return err }, err
		}},
	}
	allocs := func(bits int, setup func(*quantum.Circuit, float64) (func() error, error)) float64 {
		c := benchmarkCircuit(t, circuits.QRCA, bits)
		ch, err := schedule.Characterize(c, m)
		if err != nil {
			t.Fatal(err)
		}
		run, err := setup(c, ch.ZeroBandwidthPerMs)
		if err == nil {
			err = run() // warm pools and caches
		}
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, r := range replays {
		if small, large := allocs(8, r.setup), allocs(16, r.setup); small != large {
			t.Errorf("buffered %s allocations grow with the circuit: %v per run at 8 bits, %v at 16", r.name, small, large)
		}
	}
}
