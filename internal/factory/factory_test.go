package factory

import (
	"math"
	"testing"
	"testing/quick"

	"speedofdata/internal/iontrap"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestSimpleZeroFactoryMatchesPaper(t *testing.T) {
	f := SimpleZeroFactory{Tech: iontrap.Default()}
	if got := f.LatencyUs(); got != 323 {
		t.Errorf("simple factory latency = %v µs, want 323", got)
	}
	approx(t, "simple factory throughput", f.ThroughputPerMs(), 3.1, 0.05)
	if f.Area() != 90 {
		t.Errorf("simple factory area = %v, want 90 macroblocks", f.Area())
	}
	// Replication: 10.5/ms needs about 10.5/3.1 * 90 ≈ 305 macroblocks.
	approx(t, "simple factory area for 10.5/ms", 10.5/f.ThroughputPerMs()*float64(f.Area()), 305, 5)
}

func TestZeroFactoryUnitLatenciesMatchTable5(t *testing.T) {
	tech := iontrap.Default()
	want := map[string]iontrap.Microseconds{
		"Zero Prep":      73,
		"CX Stage":       95,
		"Cat State Prep": 62,
		"Verification":   82,
		"B/P Correction": 138,
	}
	units := ZeroFactoryUnits()
	if len(units) != 5 {
		t.Fatalf("expected 5 zero-factory units, got %d", len(units))
	}
	for _, u := range units {
		if err := u.Validate(); err != nil {
			t.Errorf("%s: %v", u.Name, err)
		}
		if got := u.LatencyUs(tech); got != want[u.Name] {
			t.Errorf("%s latency = %v µs, want %v (Table 5)", u.Name, got, want[u.Name])
		}
	}
}

func TestZeroFactoryUnitBandwidthsMatchTable5(t *testing.T) {
	tech := iontrap.Default()
	cases := []struct {
		name    string
		in, out float64
	}{
		{"Zero Prep", 13.7, 13.7},
		{"CX Stage", 221.1, 221.1},
		{"Cat State Prep", 96.8, 96.8},
		{"Verification", 122.0, 85.2},
		{"B/P Correction", 152.2, 50.7},
	}
	for _, c := range cases {
		u := zeroUnitByName(c.name)
		approx(t, c.name+" in BW", u.InBandwidth(tech), c.in, 0.15)
		approx(t, c.name+" out BW", u.OutBandwidth(tech), c.out, 0.15)
	}
}

func TestZeroFactoryUnitAreasMatchTable5(t *testing.T) {
	want := map[string]iontrap.Area{
		"Zero Prep":      1,
		"CX Stage":       28,
		"Cat State Prep": 6,
		"Verification":   10,
		"B/P Correction": 21,
	}
	for name, area := range want {
		if got := zeroUnitByName(name).Area; got != area {
			t.Errorf("%s area = %v, want %v (Table 5)", name, got, area)
		}
	}
}

func TestPipelinedZeroFactoryMatchesTable6(t *testing.T) {
	d := PipelinedZeroFactory(iontrap.Default())
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table 6 unit counts.
	wantCounts := map[string]int{
		"Zero Prep":      24,
		"CX Stage":       1,
		"Cat State Prep": 1,
		"Verification":   3,
		"B/P Correction": 2,
	}
	for _, s := range d.Stages {
		for _, a := range s.Allocations {
			if want, ok := wantCounts[a.Unit.Name]; ok {
				if a.Count != want {
					t.Errorf("%s count = %d, want %d (Table 6)", a.Unit.Name, a.Count, want)
				}
				delete(wantCounts, a.Unit.Name)
			}
		}
	}
	for name := range wantCounts {
		t.Errorf("unit %s missing from the design", name)
	}
	// Table 6 stage heights and areas.
	wantHeights := []int{24, 6, 30, 42}
	wantAreas := []float64{24, 34, 30, 42}
	for i, s := range d.Stages {
		if s.Height() != wantHeights[i] {
			t.Errorf("stage %q height = %d, want %d", s.Name, s.Height(), wantHeights[i])
		}
		if math.Abs(float64(s.Area())-wantAreas[i]) > 1e-9 {
			t.Errorf("stage %q area = %v, want %v", s.Name, s.Area(), wantAreas[i])
		}
	}
	// Section 4.4.1 totals: 168 crossbar + 130 functional = 298 macroblocks,
	// 10.5 encoded ancillae / ms.
	if got := float64(d.CrossbarArea()); got != 168 {
		t.Errorf("crossbar area = %v, want 168", got)
	}
	if got := float64(d.FunctionalArea()); got != 130 {
		t.Errorf("functional area = %v, want 130", got)
	}
	if got := float64(d.TotalArea()); got != 298 {
		t.Errorf("total area = %v, want 298", got)
	}
	approx(t, "pipelined zero factory throughput", d.ThroughputPerMs, 10.5, 0.1)
}

func TestPi8FactoryUnitLatenciesMatchTable7(t *testing.T) {
	tech := iontrap.Default()
	want := map[string]iontrap.Microseconds{
		"Cat State Prepare":        218,
		"Transversal CX/CS/CZ/pi8": 53,
		"Decode (plus Store)":      218,
		"H/M/Transversal Z":        74,
	}
	units := Pi8FactoryUnits()
	if len(units) != 4 {
		t.Fatalf("expected 4 pi/8-factory units, got %d", len(units))
	}
	for _, u := range units {
		if err := u.Validate(); err != nil {
			t.Errorf("%s: %v", u.Name, err)
		}
		if got := u.LatencyUs(tech); got != want[u.Name] {
			t.Errorf("%s latency = %v µs, want %v (Table 7)", u.Name, got, want[u.Name])
		}
	}
}

func TestPi8FactoryUnitBandwidthsMatchTable7(t *testing.T) {
	tech := iontrap.Default()
	cases := []struct {
		name    string
		in, out float64
	}{
		{"Cat State Prepare", 32.1, 32.1},
		{"Transversal CX/CS/CZ/pi8", 264.2, 264.2},
		{"Decode (plus Store)", 64.2, 36.7},
		{"H/M/Transversal Z", 108.1, 94.6},
	}
	for _, c := range cases {
		u := pi8UnitByName(c.name)
		approx(t, c.name+" in BW", u.InBandwidth(tech), c.in, 0.15)
		approx(t, c.name+" out BW", u.OutBandwidth(tech), c.out, 0.15)
	}
}

func TestPi8FactoryMatchesTable8(t *testing.T) {
	d := Pi8Factory(iontrap.Default())
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	wantCounts := map[string]int{
		"Cat State Prepare":        4,
		"Transversal CX/CS/CZ/pi8": 1,
		"Decode (plus Store)":      4,
		"H/M/Transversal Z":        2,
	}
	for _, s := range d.Stages {
		for _, a := range s.Allocations {
			if want, ok := wantCounts[a.Unit.Name]; ok {
				if a.Count != want {
					t.Errorf("%s count = %d, want %d (Table 8)", a.Unit.Name, a.Count, want)
				}
				delete(wantCounts, a.Unit.Name)
			}
		}
	}
	for name := range wantCounts {
		t.Errorf("unit %s missing from the design", name)
	}
	wantHeights := []int{24, 7, 52, 16}
	wantAreas := []float64{48, 7, 76, 16}
	for i, s := range d.Stages {
		if s.Height() != wantHeights[i] {
			t.Errorf("stage %q height = %d, want %d", s.Name, s.Height(), wantHeights[i])
		}
		if math.Abs(float64(s.Area())-wantAreas[i]) > 1e-9 {
			t.Errorf("stage %q area = %v, want %v", s.Name, s.Area(), wantAreas[i])
		}
	}
	// Section 4.4.2 totals: 256 crossbar + 147 functional = 403 macroblocks,
	// 18.3 encoded π/8 ancillae / ms.
	if got := float64(d.CrossbarArea()); got != 256 {
		t.Errorf("crossbar area = %v, want 256", got)
	}
	if got := float64(d.FunctionalArea()); got != 147 {
		t.Errorf("functional area = %v, want 147", got)
	}
	if got := float64(d.TotalArea()); got != 403 {
		t.Errorf("total area = %v, want 403", got)
	}
	approx(t, "pi/8 factory throughput", d.ThroughputPerMs, 18.3, 0.1)
}

func TestAreaForBandwidthScaling(t *testing.T) {
	d := PipelinedZeroFactory(iontrap.Default())
	// Table 9: 34.8 zero ancillae/ms requires ≈ 987 macroblocks of QEC
	// factories.
	approx(t, "QRCA QEC factory area", float64(d.AreaForBandwidth(34.8)), 987, 12)
	// 306.1/ms (QCLA) requires ≈ 8682 macroblocks.
	approx(t, "QCLA QEC factory area", float64(d.AreaForBandwidth(306.1)), 8682, 110)
	if d.CountForBandwidth(34.8) != 4 {
		t.Errorf("whole factories for 34.8/ms = %d, want 4", d.CountForBandwidth(34.8))
	}
	if d.CountForBandwidth(0) != 0 {
		t.Error("zero bandwidth needs zero factories")
	}
}

func TestPi8SupplyAreaMatchesTable9(t *testing.T) {
	tech := iontrap.Default()
	zero := PipelinedZeroFactory(tech)
	pi8 := Pi8Factory(tech)
	// Table 9 last column: QRCA needs 7.0 π/8 ancillae/ms → ≈ 355
	// macroblocks including the zero factories feeding the encoders.
	approx(t, "QRCA pi/8 supply area", float64(Pi8SupplyArea(pi8, zero, 7.0)), 354.7, 8)
	// QCLA at 62.7/ms → ≈ 3154 macroblocks.
	approx(t, "QCLA pi/8 supply area", float64(Pi8SupplyArea(pi8, zero, 62.7)), 3154, 60)
	// QFT at 8.6/ms → ≈ 434 macroblocks.
	approx(t, "QFT pi/8 supply area", float64(Pi8SupplyArea(pi8, zero, 8.6)), 433.7, 10)
}

func TestPipelinedVsSimpleBandwidthPerArea(t *testing.T) {
	// Section 5.3: the simple and pipelined factories produce virtually the
	// same bandwidth per unit area (the pipelined one wins on concentrated
	// ports, not density).
	tech := iontrap.Default()
	simple := SimpleZeroFactory{Tech: tech}
	pipe := PipelinedZeroFactory(tech)
	simpleDensity := simple.ThroughputPerMs() / float64(simple.Area())
	pipeDensity := pipe.ThroughputPerMs / float64(pipe.TotalArea())
	ratio := pipeDensity / simpleDensity
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("bandwidth-per-area ratio pipelined/simple = %.2f, expected ≈ 1", ratio)
	}
}

func TestDesignValidateCatchesErrors(t *testing.T) {
	good := PipelinedZeroFactory(iontrap.Default())
	bad := good
	bad.Stages = nil
	if err := bad.Validate(); err == nil {
		t.Error("design without stages should be invalid")
	}
	bad = good
	bad.CrossbarColumns = []int{1}
	if err := bad.Validate(); err == nil {
		t.Error("wrong crossbar count should be invalid")
	}
	bad = good
	bad.ThroughputPerMs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero throughput should be invalid")
	}
	u := zeroUnitByName("Zero Prep")
	u.InternalStages = 0
	if err := u.Validate(); err == nil {
		t.Error("zero internal stages should be invalid")
	}
	u = zeroUnitByName("Zero Prep")
	u.SuccessRate = 2
	if err := u.Validate(); err == nil {
		t.Error("success rate above 1 should be invalid")
	}
}

func TestUnitsFor(t *testing.T) {
	if unitsFor(10, 5) != 2 {
		t.Error("exact division")
	}
	if unitsFor(10.1, 5) != 3 {
		t.Error("rounding up")
	}
	if unitsFor(10, 0) != 0 {
		t.Error("zero capacity")
	}
	if unitsFor(0, 5) != 0 {
		t.Error("zero demand")
	}
}

// Property: factory area scales linearly with requested bandwidth and the
// integer count is always enough.
func TestAreaForBandwidthProperty(t *testing.T) {
	d := PipelinedZeroFactory(iontrap.Default())
	f := func(raw uint16) bool {
		bw := float64(raw%2000) / 7.0
		area := float64(d.AreaForBandwidth(bw))
		area2 := float64(d.AreaForBandwidth(2 * bw))
		if math.Abs(area2-2*area) > 1e-6 {
			return false
		}
		count := d.CountForBandwidth(bw)
		return float64(count)*d.ThroughputPerMs >= bw-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: under any valid technology scaling, the pipelined factory's
// throughput stays positive and its area stays at the Table 6 value (area is
// latency independent).
func TestFactoryUnderScaledTechnologyProperty(t *testing.T) {
	f := func(scaleRaw uint8) bool {
		scale := float64(scaleRaw%20+1) / 5.0
		tech := iontrap.Default()
		for op, l := range tech.Latency {
			tech.Latency[op] = iontrap.Microseconds(float64(l) * scale)
		}
		d := PipelinedZeroFactory(tech)
		if d.ThroughputPerMs <= 0 {
			return false
		}
		return d.TotalArea() == 298
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
