package microarch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"speedofdata/internal/circuits"
	"speedofdata/internal/quantum"
	"speedofdata/internal/sim"
)

// TestEventSimulatorMatchesClosedFormOnFigure15Grid is the refactor's
// regression oracle: for every architecture × benchmark of the Figure 15
// grid, the event-driven simulator with infinite buffers must match the
// closed-form token-bucket model bit for bit — makespan, stall time and every
// counter.  The two share one cost model and one issue order (readiness,
// then gate index), so any divergence is a real behavioural change.
func TestEventSimulatorMatchesClosedFormOnFigure15Grid(t *testing.T) {
	for _, bench := range circuits.Benchmarks() {
		c := benchmarkCircuit(t, bench, 8)
		for _, arch := range Architectures() {
			for _, scale := range ScalesFor(arch, DefaultMaxScale) {
				cfg := DefaultConfig(arch)
				switch arch {
				case QLA, GQLA, CQLA, GCQLA:
					cfg.GeneratorsPerQubit = scale
				case FullyMultiplexed:
					cfg.SharedFactories = scale
				}
				event, err := Simulate(c, cfg)
				if err != nil {
					t.Fatalf("%v/%v scale %d: event: %v", bench, arch, scale, err)
				}
				closed, err := SimulateClosedForm(c, cfg)
				if err != nil {
					t.Fatalf("%v/%v scale %d: closed form: %v", bench, arch, scale, err)
				}
				if event.ExecutionTime != closed.ExecutionTime {
					t.Errorf("%v/%v scale %d: event makespan %v != closed-form %v",
						bench, arch, scale, event.ExecutionTime, closed.ExecutionTime)
				}
				if event.AncillaStallTime != closed.AncillaStallTime {
					t.Errorf("%v/%v scale %d: event stall %v != closed-form %v",
						bench, arch, scale, event.AncillaStallTime, closed.AncillaStallTime)
				}
				if event.Teleports != closed.Teleports || event.CacheMisses != closed.CacheMisses ||
					event.AncillaeConsumed != closed.AncillaeConsumed {
					t.Errorf("%v/%v scale %d: counters differ: event %+v closed %+v",
						bench, arch, scale, event, closed)
				}
				if event.Events == 0 {
					t.Errorf("%v/%v scale %d: event-driven run reported no kernel events", bench, arch, scale)
				}
			}
		}
	}
}

// A deeper spot check at the paper's full benchmark width.
func TestEventSimulatorMatchesClosedFormAt32Bits(t *testing.T) {
	c := benchmarkCircuit(t, circuits.QCLA, 32)
	for _, arch := range []Architecture{QLA, FullyMultiplexed} {
		cfg := DefaultConfig(arch)
		event, err := Simulate(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		closed, err := SimulateClosedForm(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if event.ExecutionTime != closed.ExecutionTime || event.AncillaeConsumed != closed.AncillaeConsumed {
			t.Errorf("%v at 32 bits: event %v/%d != closed %v/%d", arch,
				event.ExecutionTime, event.AncillaeConsumed, closed.ExecutionTime, closed.AncillaeConsumed)
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

// FuzzSimulateParity runs the closed-form oracle against the event-driven
// simulator over random small circuits, architectures, scales and cache
// sizes, all at infinite buffer: every Result field must agree (the closed
// form reports no kernel events).
func FuzzSimulateParity(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(15))
	f.Add(int64(2), uint8(2), uint8(3), uint8(1))
	f.Add(int64(3), uint8(3), uint8(1), uint8(0))
	f.Add(int64(4), uint8(4), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, arch, scale, cache uint8) {
		c := randomCircuit(rand.New(rand.NewSource(seed)), 12, 80)
		archs := Architectures()
		cfg := DefaultConfig(archs[int(arch)%len(archs)])
		cfg.GeneratorsPerQubit = 1 + int(scale%8)
		cfg.SharedFactories = 1 + int(scale%8)
		cfg.CacheSlots = 1 + int(cache%16)
		event, err := Simulate(c, cfg)
		closed, cerr := SimulateClosedForm(c, cfg)
		if (err == nil) != (cerr == nil) {
			t.Fatalf("event error %v, closed-form error %v", err, cerr)
		}
		if err != nil {
			return
		}
		if len(c.Gates) > 0 && event.Events == 0 {
			t.Fatalf("%v: event-driven run of %d gates reported no kernel events", cfg.Arch, len(c.Gates))
		}
		event.Events = 0
		if event != closed {
			t.Fatalf("%v on %d qubits, %d gates: event %+v != closed form %+v",
				cfg.Arch, c.NumQubits, len(c.Gates), event, closed)
		}
	})
}

func TestZeroGenerationRateIsTypedError(t *testing.T) {
	cfg := DefaultConfig(FullyMultiplexed)
	if _, err := sourceRates(cfg, 4); err != nil {
		t.Fatalf("default config rates should be valid: %v", err)
	}
	// Rates are validated before any pool exists, so a non-positive rate is a
	// typed error instead of an Inf execution time leaking into results.
	rates, err := sourceRates(Config{Arch: FullyMultiplexed, Latency: cfg.Latency}, 4)
	if err == nil {
		// Zero SharedFactories yields a zero rate.
		t.Fatalf("zero shared factories should be a zero-rate error, got rates %v", rates)
	}
	if !errors.Is(err, sim.ErrZeroRate) {
		t.Errorf("error %v should wrap sim.ErrZeroRate", err)
	}
}

func TestFiniteBufferNeverFasterAndConverges(t *testing.T) {
	c := benchmarkCircuit(t, circuits.QRCA, 8)
	cfg := DefaultConfig(FullyMultiplexed)
	cfg.SharedFactories = 4
	unlimited, err := Simulate(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, cap := range []float64{1, 4, 16, 64, 4096} {
		cfg.BufferAncillae = cap
		res, err := Simulate(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.ExecutionTime) < float64(unlimited.ExecutionTime)-1e-6 {
			t.Errorf("cap %v: finite buffer beat the infinite-buffer makespan: %v < %v",
				cap, res.ExecutionTime, unlimited.ExecutionTime)
		}
		if res.BufferHighWater > cap+1e-9 {
			t.Errorf("cap %v: high water %v exceeds capacity", cap, res.BufferHighWater)
		}
		if prev != 0 && float64(res.ExecutionTime) > prev*1.0001 {
			t.Errorf("cap %v: execution time %v got worse than smaller... larger buffers should not slow execution (prev %v)",
				cap, float64(res.ExecutionTime), prev)
		}
		prev = float64(res.ExecutionTime)
	}
	// A generous buffer must land within a whisker of the fluid model.
	cfg.BufferAncillae = 1 << 20
	big, err := Simulate(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(big.ExecutionTime) / float64(unlimited.ExecutionTime); ratio > 1.01 {
		t.Errorf("huge buffer should converge on the fluid makespan: ratio %v", ratio)
	}
}

func TestTinyBufferStallsProducerAndGates(t *testing.T) {
	c := benchmarkCircuit(t, circuits.QCLA, 8)

	// Starved supply: the factory is the bottleneck, so gates stall on
	// ancillae and the buffer never fills (the producer never stalls).
	starved := DefaultConfig(FullyMultiplexed)
	starved.SharedFactories = 1
	starved.BufferAncillae = 2
	res, err := Simulate(c, starved)
	if err != nil {
		t.Fatal(err)
	}
	if res.AncillaStallTime <= 0 {
		t.Error("a starved single-factory run should stall gates on ancillae")
	}
	if res.BufferHighWater <= 0 || res.BufferHighWater > 2+1e-9 {
		t.Errorf("high water %v should be positive and bounded by the capacity", res.BufferHighWater)
	}

	// Overprovisioned supply: during serial stretches of the circuit demand
	// pauses, the tiny buffer fills, and production must stall.
	rich := DefaultConfig(FullyMultiplexed)
	rich.SharedFactories = 64
	rich.BufferAncillae = 2
	res, err = Simulate(c, rich)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProducerStallTime <= 0 {
		t.Error("an overprovisioned factory behind a 2-ancilla buffer should stall")
	}
}

func TestClosedFormRejectsFiniteBuffers(t *testing.T) {
	c := benchmarkCircuit(t, circuits.QRCA, 4)
	cfg := DefaultConfig(FullyMultiplexed)
	cfg.BufferAncillae = 8
	if _, err := SimulateClosedForm(c, cfg); err == nil {
		t.Error("the closed form cannot model finite buffers and must say so")
	}
	cfg.BufferAncillae = -1
	if _, err := Simulate(c, cfg); err == nil {
		t.Error("negative buffer capacity should be rejected")
	}
}

func TestBufferSweepShape(t *testing.T) {
	c := benchmarkCircuit(t, circuits.QRCA, 8)
	caps := DefaultBufferCaps()
	cfgs := make([]Config, len(caps))
	for i, cap := range caps {
		cfgs[i] = DefaultConfig(FullyMultiplexed)
		cfgs[i].SharedFactories = 2
		cfgs[i].BufferAncillae = cap
	}
	results, err := Sweep(context.Background(), nil, c, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(caps) {
		t.Fatalf("got %d results, want %d", len(results), len(caps))
	}
	// The final capacity is the infinite-buffer reference; every finite
	// capacity must be at least as slow.
	if caps[len(caps)-1] != 0 {
		t.Fatalf("last sweep capacity should be the infinite reference, got %v", caps[len(caps)-1])
	}
	ref := results[len(results)-1]
	for i, r := range results[:len(results)-1] {
		if r.ExecutionTimeMs() < ref.ExecutionTimeMs()-1e-9 {
			t.Errorf("cap %v beat the infinite-buffer reference: %v < %v",
				caps[i], r.ExecutionTimeMs(), ref.ExecutionTimeMs())
		}
	}
	// Each result is the plain Simulate of its configuration.
	for i, cfg := range cfgs {
		if want, err := Simulate(c, cfg); err != nil || results[i] != want {
			t.Errorf("cap %v: swept %+v, Simulate %+v (%v)", caps[i], results[i], want, err)
		}
	}
	cfgs[0].BufferAncillae = -2
	if _, err := Sweep(context.Background(), nil, c, cfgs); err == nil {
		t.Error("negative capacity should fail")
	}
}

// The empty circuit short-circuits before any kernel is built, matching the
// closed form.
func TestEventSimulatorEmptyCircuit(t *testing.T) {
	c := quantum.NewCircuit("empty", 2)
	cfg := DefaultConfig(FullyMultiplexed)
	cfg.BufferAncillae = 4
	res, err := Simulate(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecutionTime != 0 || res.Events != 0 {
		t.Errorf("empty circuit result = %+v", res)
	}
}

// The event-driven Simulate path is called thousands of times per sweep; its
// pooled run state and the kernel's closure-free scheduling must keep the
// steady state allocation-free apart from a constant handful per run (the
// result bookkeeping), independent of gate count.
func TestSimulateEventsSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop objects at random")
	}
	c, err := circuits.Generate(circuits.QRCA, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(FullyMultiplexed)
	if _, err := Simulate(c, cfg); err != nil { // warm pools and caches
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Simulate(c, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// The budget covers the cost model and fluid-source bookkeeping only;
	// before the pooled run state this was hundreds of allocations per run
	// (one closure per kernel event plus the per-gate map in BuildDAG).
	if allocs > 8 {
		t.Fatalf("steady-state Simulate allocations = %v per run, want <= 8", allocs)
	}
}
