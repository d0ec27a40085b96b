package microarch

import (
	"context"
	"math"
	"math/rand"
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
	noFactory := DefaultConfig(FullyMultiplexed)
	noFactory.SharedFactories = 0
	if _, err := Sweep(context.Background(), nil, c, []Config{DefaultConfig(QLA), noFactory}); err == nil {
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
	cache := newLRUCache(2, 4)
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

// mapLRU is the compute cache as it was before its slot arrays: a map from
// resident qubit to last-use stamp, scanned for the oldest on every miss at
// capacity.  lruCache must match it touch for touch.
type mapLRU struct {
	capacity int
	stamp    int64
	entries  map[int]int64
}

func (c *mapLRU) touch(q int) (miss bool, evicted int) {
	c.stamp++
	evicted = -1
	if _, ok := c.entries[q]; ok {
		c.entries[q] = c.stamp
		return false, evicted
	}
	miss = true
	if len(c.entries) >= c.capacity {
		oldestQ, oldest := -1, int64(math.MaxInt64)
		for qq, s := range c.entries {
			if s < oldest {
				oldest, oldestQ = s, qq
			}
		}
		delete(c.entries, oldestQ)
		evicted = oldestQ
	}
	c.entries[q] = c.stamp
	return miss, evicted
}

// Over random touch sequences, capacities 1-32 and 1-100 qubits, the slot
// arrays miss and evict exactly as the map scan did.
func TestLRUCacheMatchesMapScan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for capacity := 1; capacity <= 32; capacity++ {
		for _, nQubits := range []int{1, capacity, capacity + 1, 1 + r.Intn(100), 100} {
			got := newLRUCache(capacity, nQubits)
			want := &mapLRU{capacity: capacity, entries: map[int]int64{}}
			for i := range 500 {
				q := r.Intn(nQubits)
				gm, ge := got.touch(q)
				wm, we := want.touch(q)
				if gm != wm || ge != we {
					t.Fatalf("capacity %d, %d qubits, touch %d of q%d: (miss, evicted) = (%v, %d), map scan (%v, %d)",
						capacity, nQubits, i, q, gm, ge, wm, we)
				}
			}
		}
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
	hits := eng.Tiers().MemoryHits
	if hits == 0 {
		t.Error("repeated Figure 15 grid should hit the engine cache")
	}
}

// QLA and CQLA simulate exactly as GQLA and GCQLA at equal resources, which
// is what lets Sweep key them as those: over random configurations
// (benchmarks at 4 to 16 bits, generator counts, cache sizes, finite and
// infinite buffers) each pair's Results are equal but for Arch.  A Sweep
// of both computes one job and returns each under the architecture asked
// for.
func TestQLAAndCQLASimulateAsTheirGeneralisations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buffers := []float64{0, 0, 1, 2, 4, 8, 32, 2.5}
	for i := 0; i < 100; i++ {
		b := circuits.Benchmarks()[rng.Intn(len(circuits.Benchmarks()))]
		c := benchmarkCircuit(t, b, 4+rng.Intn(13))
		for _, pair := range [][2]Architecture{{QLA, GQLA}, {CQLA, GCQLA}} {
			cfg := DefaultConfig(pair[0])
			cfg.GeneratorsPerQubit = 1 + rng.Intn(8)
			cfg.CacheSlots = 1 + rng.Intn(24)
			cfg.BufferAncillae = buffers[rng.Intn(len(buffers))]
			general := cfg
			general.Arch = pair[1]
			want, err := Simulate(c, general)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Simulate(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Arch != pair[0] {
				t.Fatalf("%v simulated as %v", pair[0], got.Arch)
			}
			if got.Arch = want.Arch; got != want {
				t.Fatalf("%s: %v at %d generators, %d slots, buffer %v: %+v, but %v %+v",
					c.Name, pair[0], cfg.GeneratorsPerQubit, cfg.CacheSlots, cfg.BufferAncillae, got, pair[1], want)
			}
			if i%20 != 0 {
				continue
			}
			eng := engine.New(1)
			rs, err := Sweep(context.Background(), eng, c, []Config{cfg, general})
			if err != nil {
				t.Fatal(err)
			}
			if rs[0].Arch != pair[0] || rs[1].Arch != pair[1] || eng.Tiers().MemoryHits != 1 {
				t.Fatalf("Sweep of %v and %v returned %v and %v with %d memory hits, want them as asked and 1 hit",
					pair[0], pair[1], rs[0].Arch, rs[1].Arch, eng.Tiers().MemoryHits)
			}
			if rs[0].Arch = want.Arch; rs[0] != want || rs[1] != want {
				t.Fatalf("Sweep results %+v and %+v, want %+v", rs[0], rs[1], want)
			}
		}
	}
}

func TestSweepEngineCancellation(t *testing.T) {
	c := benchmarkCircuit(t, circuits.QRCA, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Figure15Config{Base: DefaultConfig(FullyMultiplexed), MaxScale: 16}
	if _, err := Figure15Engine(ctx, engine.New(2), c, cfg); err == nil {
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
