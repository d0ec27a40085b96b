package schedule

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"speedofdata/internal/circuits"
	"speedofdata/internal/quantum"
	"speedofdata/internal/sim"
)

func TestSupplyValidate(t *testing.T) {
	if err := (Supply{RatePerMs: 10}).Validate(); err != nil {
		t.Errorf("plain supply invalid: %v", err)
	}
	if err := (Supply{RatePerMs: math.Inf(1)}).Validate(); err != nil {
		t.Errorf("infinite-rate supply invalid: %v", err)
	}
	if err := (Supply{RatePerMs: 0}).Validate(); !errors.Is(err, sim.ErrZeroRate) {
		t.Errorf("zero-rate supply error = %v, want ErrZeroRate", err)
	}
	if err := (Supply{RatePerMs: 10, BufferAncillae: -1}).Validate(); err == nil {
		t.Error("negative buffer should be invalid")
	}
	if err := (Supply{RatePerMs: math.Inf(1), BufferAncillae: 4}).Validate(); err == nil {
		t.Error("finite buffer with infinite rate should be invalid")
	}
}

// With an infinite buffer the fluid supply is exactly the accumulating token
// bucket of SimulateWithThroughput, and the two share one issue order — so
// Replay must reproduce the Figure 8 simulation bit for bit.
func TestReplayMatchesSimulateWithThroughput(t *testing.T) {
	m := DefaultLatencyModel()
	for _, b := range circuits.Benchmarks() {
		c, err := circuits.Generate(b, 8)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := Characterize(c, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, factor := range []float64{0.25, 0.5, 1, 2, 8} {
			rate := ch.ZeroBandwidthPerMs * factor
			want, err := SimulateWithThroughput(c, m, rate)
			if err != nil {
				t.Fatal(err)
			}
			run, err := Replay(c, m, Supply{RatePerMs: rate})
			if err != nil {
				t.Fatal(err)
			}
			if got := run.Results[0].ExecutionTime; got != want {
				t.Errorf("%v at %.2fx: replay makespan %v != closed form %v", b, factor, got, want)
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

// FuzzReplayParity runs the Figure 8 oracle pair over random small circuits
// and supply rates, finite or unbounded: the event-driven Replay with a
// fluid supply must reproduce SimulateWithThroughput bit for bit.
func FuzzReplayParity(f *testing.F) {
	f.Add(int64(1), 100.0, false)
	f.Add(int64(2), 0.5, false)
	f.Add(int64(3), 1e5, false)
	f.Add(int64(4), 1.0, true)
	f.Fuzz(func(t *testing.T, seed int64, ratePerMs float64, unbounded bool) {
		if unbounded {
			ratePerMs = math.Inf(1)
		} else if !(ratePerMs >= 1e-3 && ratePerMs <= 1e9) {
			return
		}
		c := randomCircuit(rand.New(rand.NewSource(seed)), 12, 80)
		m := DefaultLatencyModel()
		want, err := SimulateWithThroughput(c, m, ratePerMs)
		if err != nil {
			t.Fatal(err)
		}
		run, err := Replay(c, m, Supply{RatePerMs: ratePerMs})
		if err != nil {
			t.Fatal(err)
		}
		if got := run.Results[0].ExecutionTime; got != want || run.Makespan != want {
			t.Fatalf("%d qubits, %d gates at %v/ms: replay makespan %v (run %v) != closed form %v",
				c.NumQubits, len(c.Gates), ratePerMs, got, run.Makespan, want)
		}
	})
}

// A circuit's speed-of-data bound is memoised on its DAG per weight array:
// priced alternately under two models, each result carries its own model's
// bound, as a fresh DAG computes it.
func TestSpeedOfDataMemoIsKeyedByModel(t *testing.T) {
	c, err := circuits.Generate(circuits.QCLA, 8)
	if err != nil {
		t.Fatal(err)
	}
	models := []LatencyModel{DefaultLatencyModel(), fractionalModel()}
	var bounds [2]float64
	for i := range 6 {
		m := models[i%2]
		p := m.Prices()
		_, want := quantum.BuildDAG(c).CriticalPath(&p.SpeedOfData)
		bounds[i%2] = want
		if got := NewReplayResult(c, m, &p).SpeedOfData; float64(got) != want {
			t.Errorf("pricing %d (%s): NewReplayResult speed of data %v, want %v", i, m.Tech.Name, got, want)
		}
		ch, err := Characterize(c, m)
		if err != nil {
			t.Fatal(err)
		}
		if float64(ch.SpeedOfDataTime) != want {
			t.Errorf("pricing %d (%s): Characterize speed of data %v, want %v", i, m.Tech.Name, ch.SpeedOfDataTime, want)
		}
	}
	if bounds[0] == bounds[1] {
		t.Fatalf("both models give speed of data %v; the test needs two different bounds", bounds[0])
	}
}

func TestReplayInfiniteSupplyHitsSpeedOfData(t *testing.T) {
	m := DefaultLatencyModel()
	c, err := circuits.Generate(circuits.QCLA, 8)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Replay(c, m, Supply{RatePerMs: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	r := run.Results[0]
	if r.ExecutionTime != r.SpeedOfData {
		t.Errorf("infinite supply makespan %v != speed of data %v", r.ExecutionTime, r.SpeedOfData)
	}
	if r.AncillaWait != 0 {
		t.Errorf("infinite supply should never wait, got %v", r.AncillaWait)
	}
	if r.AncillaeConsumed != m.ZeroAncillaePerQEC*len(c.Gates) {
		t.Errorf("consumed %d ancillae, want %d", r.AncillaeConsumed, m.ZeroAncillaePerQEC*len(c.Gates))
	}
	if run.Events == 0 {
		t.Error("replay should process kernel events")
	}
}

func TestReplaySharedContentionSlowsEveryone(t *testing.T) {
	m := DefaultLatencyModel()
	var cs []*quantum.Circuit
	var demand float64
	for _, b := range []circuits.Benchmark{circuits.QRCA, circuits.QCLA} {
		c, err := circuits.Generate(b, 8)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := Characterize(c, m)
		if err != nil {
			t.Fatal(err)
		}
		demand += ch.ZeroBandwidthPerMs
		cs = append(cs, c)
	}
	// A supply sized for half the aggregate average demand: both benchmarks
	// must finish later than they would alone on the same supply.
	supply := Supply{RatePerMs: demand / 2}
	shared, err := ReplayShared(cs, m, supply)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cs {
		solo, err := Replay(c, m, supply)
		if err != nil {
			t.Fatal(err)
		}
		if shared.Results[i].ExecutionTime < solo.Results[0].ExecutionTime {
			t.Errorf("%s: contended makespan %v beat the solo makespan %v",
				c.Name, shared.Results[i].ExecutionTime, solo.Results[0].ExecutionTime)
		}
		if shared.Results[i].Slowdown() < 1 {
			t.Errorf("%s: slowdown %v should be at least 1", c.Name, shared.Results[i].Slowdown())
		}
	}
	if shared.Makespan < shared.Results[0].ExecutionTime || shared.Makespan < shared.Results[1].ExecutionTime {
		t.Error("overall makespan must cover every circuit")
	}
}

func TestReplayFiniteBufferNeverFaster(t *testing.T) {
	m := DefaultLatencyModel()
	c, err := circuits.Generate(circuits.QRCA, 8)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Characterize(c, m)
	if err != nil {
		t.Fatal(err)
	}
	rate := ch.ZeroBandwidthPerMs * 2
	fluid, err := Replay(c, m, Supply{RatePerMs: rate})
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := Replay(c, m, Supply{RatePerMs: rate, BufferAncillae: 4})
	if err != nil {
		t.Fatal(err)
	}
	if buffered.Results[0].ExecutionTime < fluid.Results[0].ExecutionTime-1e-6 {
		t.Errorf("finite buffer %v beat infinite buffer %v",
			buffered.Results[0].ExecutionTime, fluid.Results[0].ExecutionTime)
	}
	if buffered.ProducerStall <= 0 {
		t.Error("an over-provisioned supply behind a 4-ancilla buffer should stall")
	}
	if buffered.BufferHighWater <= 0 || buffered.BufferHighWater > 4+1e-9 {
		t.Errorf("high water %v out of range", buffered.BufferHighWater)
	}
}

func TestReplayDecompositionIsConsistent(t *testing.T) {
	m := DefaultLatencyModel()
	c, err := circuits.Generate(circuits.QFT, 8)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Characterize(c, m)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Replay(c, m, Supply{RatePerMs: ch.ZeroBandwidthPerMs / 2})
	if err != nil {
		t.Fatal(err)
	}
	r := run.Results[0]
	if r.Gates != len(c.Gates) {
		t.Errorf("gates = %d, want %d", r.Gates, len(c.Gates))
	}
	if r.DataOpBusy <= 0 || r.QECInteractBusy <= 0 {
		t.Errorf("busy decomposition missing: %+v", r)
	}
	// Starved at half the average demand, waiting must dominate relative to
	// the dataflow bound.
	if r.AncillaWait <= 0 {
		t.Error("a starved replay should accumulate ancilla wait")
	}
	if r.ExecutionTime <= r.SpeedOfData {
		t.Error("a starved replay must run slower than the speed of data")
	}
}

func TestReplayEdgeCases(t *testing.T) {
	m := DefaultLatencyModel()
	if _, err := ReplayShared(nil, m, Supply{RatePerMs: 10}); err == nil {
		t.Error("no circuits should be an error")
	}
	empty := quantum.NewCircuit("empty", 1)
	run, err := Replay(empty, m, Supply{RatePerMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if run.Results[0].ExecutionTime != 0 || run.Events != 0 {
		t.Errorf("empty replay = %+v", run)
	}
	if _, err := Replay(empty, m, Supply{RatePerMs: 0}); !errors.Is(err, sim.ErrZeroRate) {
		t.Errorf("zero-rate replay error = %v", err)
	}
}
