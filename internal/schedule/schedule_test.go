package schedule

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"speedofdata/internal/circuits"
	"speedofdata/internal/iontrap"
	"speedofdata/internal/quantum"
)

func smallBenchmark(t *testing.T) *quantum.Circuit {
	t.Helper()
	c, err := circuits.Generate(circuits.QRCA, 4)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultLatencyModelValues(t *testing.T) {
	m := DefaultLatencyModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.SerialZeroPrepLatency != 323 {
		t.Errorf("SerialZeroPrepLatency = %v, want 323 µs (simple factory, Section 4.3)", m.SerialZeroPrepLatency)
	}
	if m.QECInteractLatency() != 122 {
		t.Errorf("QECInteractLatency = %v, want 122 µs (2 x (t2q + tmeas + t1q))", m.QECInteractLatency())
	}
	if m.AncillaPrepLatency() != 646 {
		t.Errorf("AncillaPrepLatency = %v, want 646 µs (two serial preps)", m.AncillaPrepLatency())
	}
}

func TestModelValidate(t *testing.T) {
	m := DefaultLatencyModel()
	m.ZeroAncillaePerQEC = 0
	if err := m.Validate(); err == nil {
		t.Error("zero ancillae per QEC should be invalid")
	}
	m = DefaultLatencyModel()
	m.SerialZeroPrepLatency = 0
	if err := m.Validate(); err == nil {
		t.Error("zero prep latency should be invalid")
	}
	m = DefaultLatencyModel()
	delete(m.Tech.Latency, iontrap.OpMeasure)
	if err := m.Validate(); err == nil {
		t.Error("incomplete technology should be invalid")
	}
}

func TestDataOpLatencies(t *testing.T) {
	m := DefaultLatencyModel()
	cases := []struct {
		g    quantum.Gate
		want iontrap.Microseconds
	}{
		{quantum.Gate{Kind: quantum.GateH, Qubits: []int{0}}, 1},
		{quantum.Gate{Kind: quantum.GateCX, Qubits: []int{0, 1}}, 10},
		{quantum.Gate{Kind: quantum.GateT, Qubits: []int{0}}, 61},
		{quantum.Gate{Kind: quantum.GateTdg, Qubits: []int{0}}, 61},
		{quantum.Gate{Kind: quantum.GateMeasure, Qubits: []int{0}}, 50},
		{quantum.Gate{Kind: quantum.GatePrepZero, Qubits: []int{0}}, 51},
	}
	for _, tc := range cases {
		if got := m.DataOpLatency(tc.g); got != tc.want {
			t.Errorf("DataOpLatency(%s) = %v, want %v", tc.g.Kind, got, tc.want)
		}
	}
}

// fractionalModel is the default model on a technology whose latencies are
// not whole microseconds, so sums of them round.
func fractionalModel() LatencyModel {
	m := DefaultLatencyModel()
	m.Tech = iontrap.Technology{Name: "fractional", Latency: map[iontrap.Op]iontrap.Microseconds{
		iontrap.OpOneQubitGate: 0.1, iontrap.OpTwoQubitGate: 0.7, iontrap.OpMeasure: 3.3,
		iontrap.OpZeroPrep: 5.1, iontrap.OpStraightMove: 0.1, iontrap.OpTurn: 0.3,
	}}
	m.SerialZeroPrepLatency = SimpleFactoryLatency(m.Tech)
	return m
}

// The price table holds exactly what the three per-gate methods return, for
// every gate kind, under whole and fractional latencies.
func TestGatePricesMatchModel(t *testing.T) {
	for _, m := range []LatencyModel{DefaultLatencyModel(), fractionalModel()} {
		p := m.Prices()
		for k := range quantum.NumGateKinds {
			g := quantum.Gate{Kind: k, Qubits: make([]int, k.Arity())}
			for i := range g.Qubits {
				g.Qubits[i] = i
			}
			if p.DataOp[k] != float64(m.DataOpLatency(g)) ||
				p.SpeedOfData[k] != float64(m.GateWeightSpeedOfData(g)) ||
				p.NoOverlap[k] != float64(m.GateWeightNoOverlap(g)) {
				t.Errorf("%s, %s: table %v/%v/%v, methods %v/%v/%v", m.Tech.Name, k,
					p.DataOp[k], p.SpeedOfData[k], p.NoOverlap[k],
					m.DataOpLatency(g), m.GateWeightSpeedOfData(g), m.GateWeightNoOverlap(g))
			}
		}
	}
}

func TestCharacterizeSmallCircuit(t *testing.T) {
	// One T gate: data op 61, interact 122, prep 646; speed of data 183.
	c := quantum.NewCircuit("single T", 1)
	c.Add(quantum.GateT, 0)
	ch, err := Characterize(c, DefaultLatencyModel())
	if err != nil {
		t.Fatal(err)
	}
	if ch.DataOpLatency != 61 || ch.QECInteractLatency != 122 || ch.AncillaPrepLatency != 646 {
		t.Errorf("single-T characterization = %+v", ch)
	}
	if ch.SpeedOfDataTime != 183 {
		t.Errorf("speed of data = %v, want 183", ch.SpeedOfDataTime)
	}
	if ch.ZeroAncillae != 2 || ch.Pi8Ancillae != 1 {
		t.Errorf("ancilla totals = %d/%d, want 2/1", ch.ZeroAncillae, ch.Pi8Ancillae)
	}
	if ch.CriticalPathGates != 1 {
		t.Errorf("critical path gates = %d, want 1", ch.CriticalPathGates)
	}
	if ch.Speedup() < 4 || ch.Speedup() > 5 {
		t.Errorf("speedup = %v, want (61+122+646)/183 ≈ 4.5", ch.Speedup())
	}
}

func TestCharacterizeEmptyCircuit(t *testing.T) {
	c := quantum.NewCircuit("empty", 2)
	ch, err := Characterize(c, DefaultLatencyModel())
	if err != nil {
		t.Fatal(err)
	}
	if ch.TotalGates != 0 || ch.SpeedOfDataTime != 0 || ch.ZeroBandwidthPerMs != 0 {
		t.Errorf("empty characterization = %+v", ch)
	}
}

func TestCharacterizeBenchmarkShape(t *testing.T) {
	// Table 2 shape: ancilla preparation dominates the no-overlap critical
	// path (paper: 71-78%), QEC interaction is the next biggest share, and
	// useful data operations are a few percent.
	ch, err := Characterize(smallBenchmark(t), DefaultLatencyModel())
	if err != nil {
		t.Fatal(err)
	}
	dataFrac, interactFrac, prepFrac := ch.Fractions()
	if prepFrac < 0.6 || prepFrac > 0.9 {
		t.Errorf("ancilla prep fraction = %.2f, expected around 0.7-0.8", prepFrac)
	}
	if interactFrac < 0.1 || interactFrac > 0.3 {
		t.Errorf("QEC interact fraction = %.2f, expected around 0.15-0.25", interactFrac)
	}
	if dataFrac < 0.01 || dataFrac > 0.2 {
		t.Errorf("data op fraction = %.2f, expected a few percent", dataFrac)
	}
	if math.Abs(dataFrac+interactFrac+prepFrac-1) > 1e-9 {
		t.Error("fractions should sum to 1")
	}
	// Bandwidths must be positive and the zero bandwidth strictly larger
	// than the π/8 bandwidth (2 per gate vs ~0.4 per gate).
	if ch.ZeroBandwidthPerMs <= ch.Pi8BandwidthPerMs || ch.Pi8BandwidthPerMs <= 0 {
		t.Errorf("bandwidths = %v / %v", ch.ZeroBandwidthPerMs, ch.Pi8BandwidthPerMs)
	}
}

func TestCharacterizeConsistencyAcrossBenchmarks(t *testing.T) {
	// Table 3 shape: the QCLA needs roughly an order of magnitude more
	// ancilla bandwidth than the QRCA at the same width because it finishes
	// much sooner with a similar gate count.
	m := DefaultLatencyModel()
	qrca, err := circuits.Generate(circuits.QRCA, 16)
	if err != nil {
		t.Fatal(err)
	}
	qcla, err := circuits.Generate(circuits.QCLA, 16)
	if err != nil {
		t.Fatal(err)
	}
	chR, err := Characterize(qrca, m)
	if err != nil {
		t.Fatal(err)
	}
	chC, err := Characterize(qcla, m)
	if err != nil {
		t.Fatal(err)
	}
	if chC.ZeroBandwidthPerMs < 3*chR.ZeroBandwidthPerMs {
		t.Errorf("QCLA bandwidth (%.1f/ms) should be several times the QRCA's (%.1f/ms)",
			chC.ZeroBandwidthPerMs, chR.ZeroBandwidthPerMs)
	}
	if chC.SpeedOfDataTime >= chR.SpeedOfDataTime {
		t.Error("QCLA should finish sooner than QRCA at the speed of data")
	}
}

func TestDemandProfile(t *testing.T) {
	c := smallBenchmark(t)
	m := DefaultLatencyModel()
	profile, err := DemandProfile(c, m, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(profile) != 20 {
		t.Fatalf("profile has %d buckets, want 20", len(profile))
	}
	totalZero, totalPi8 := 0, 0
	peak, prev := 0.0, 0.0 // peak: the largest per-bucket zero-ancilla rate, per ms
	for i, p := range profile {
		if i > 0 && p.TimeMs <= profile[i-1].TimeMs {
			t.Error("bucket times must be increasing")
		}
		if width := p.TimeMs - prev; width > 0 && float64(p.ZeroAncillae)/width > peak {
			peak = float64(p.ZeroAncillae) / width
		}
		prev = p.TimeMs
		totalZero += p.ZeroAncillae
		totalPi8 += p.Pi8Ancillae
	}
	ch, err := Characterize(c, m)
	if err != nil {
		t.Fatal(err)
	}
	if totalZero != ch.ZeroAncillae {
		t.Errorf("profile zero ancillae = %d, characterization says %d", totalZero, ch.ZeroAncillae)
	}
	if totalPi8 != ch.Pi8Ancillae {
		t.Errorf("profile π/8 ancillae = %d, characterization says %d", totalPi8, ch.Pi8Ancillae)
	}
	if peak < ch.ZeroBandwidthPerMs {
		t.Errorf("peak bandwidth %.1f should be at least the average %.1f", peak, ch.ZeroBandwidthPerMs)
	}
}

func TestDemandProfileErrors(t *testing.T) {
	c := smallBenchmark(t)
	if _, err := DemandProfile(c, DefaultLatencyModel(), 0); err == nil {
		t.Error("zero buckets should fail")
	}
}

func TestSimulateWithThroughputLimits(t *testing.T) {
	c := smallBenchmark(t)
	m := DefaultLatencyModel()
	ch, err := Characterize(c, m)
	if err != nil {
		t.Fatal(err)
	}
	// Unlimited throughput reproduces the speed-of-data time.
	unlimited, err := SimulateWithThroughput(c, m, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(unlimited-ch.SpeedOfDataTime)) > 1e-6 {
		t.Errorf("unlimited throughput time %v != speed of data %v", unlimited, ch.SpeedOfDataTime)
	}
	// Very generous throughput approaches the speed-of-data time.
	generous, err := SimulateWithThroughput(c, m, 100*ch.ZeroBandwidthPerMs)
	if err != nil {
		t.Fatal(err)
	}
	if float64(generous) > 1.2*float64(ch.SpeedOfDataTime) {
		t.Errorf("generous throughput time %v should approach speed of data %v", generous, ch.SpeedOfDataTime)
	}
	// Starved throughput is dominated by ancilla production: close to
	// totalAncillae / rate.
	starvedRate := ch.ZeroBandwidthPerMs / 20
	starved, err := SimulateWithThroughput(c, m, starvedRate)
	if err != nil {
		t.Fatal(err)
	}
	expectedMs := float64(ch.ZeroAncillae) / starvedRate
	if starved.Milliseconds() < 0.9*expectedMs {
		t.Errorf("starved execution %v ms should be at least ancillae/rate = %v ms", starved.Milliseconds(), expectedMs)
	}
	if float64(starved) <= float64(generous) {
		t.Error("starving the circuit of ancillae must slow it down")
	}
}

func TestThroughputSweepMonotone(t *testing.T) {
	c := smallBenchmark(t)
	m := DefaultLatencyModel()
	ch, err := Characterize(c, m)
	if err != nil {
		t.Fatal(err)
	}
	rates := DefaultSweepRates(ch.ZeroBandwidthPerMs)
	sweep, err := ThroughputSweepEngine(context.Background(), nil, c, m, rates)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != len(rates) {
		t.Fatalf("sweep has %d points, want %d", len(sweep), len(rates))
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i].ThroughputPerMs < sweep[i-1].ThroughputPerMs {
			t.Error("sweep rates should be sorted")
		}
		if sweep[i].ExecutionTimeMs > sweep[i-1].ExecutionTimeMs*1.000001 {
			t.Errorf("execution time should not increase with throughput: %v -> %v",
				sweep[i-1], sweep[i])
		}
	}
}

func TestThroughputSweepErrors(t *testing.T) {
	c := smallBenchmark(t)
	if _, err := ThroughputSweepEngine(context.Background(), nil, c, DefaultLatencyModel(), []float64{-1}); err == nil {
		t.Error("negative throughput should fail")
	}
}

func TestDefaultSweepRates(t *testing.T) {
	rates := DefaultSweepRates(10)
	if len(rates) == 0 {
		t.Fatal("no rates")
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			t.Error("rates should be strictly increasing")
		}
	}
	if DefaultSweepRates(-5)[0] <= 0 {
		t.Error("non-positive average should still produce positive rates")
	}
}

// Property: for any benchmark width, the speed-of-data time is no larger than
// the no-overlap total, and bandwidth scales consistently with gate count.
func TestSpeedOfDataNeverSlowerProperty(t *testing.T) {
	m := DefaultLatencyModel()
	f := func(widthRaw uint8) bool {
		width := int(widthRaw%6) + 2
		c, err := circuits.Generate(circuits.QRCA, width)
		if err != nil {
			return false
		}
		ch, err := Characterize(c, m)
		if err != nil {
			return false
		}
		if ch.SpeedOfDataTime > ch.NoOverlapTotal() {
			return false
		}
		return ch.ZeroAncillae == 2*ch.TotalGates
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
