package quantum_test

import (
	"slices"
	"testing"

	"speedofdata/internal/circuits"
	"speedofdata/internal/iontrap"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
)

// On the benchmark circuits at 8 and 32 bits, under the weights the
// schedule actually prices with (speed of data and no overlap, default and
// fractional technologies), CriticalPath and Makespan match the
// topological-order reference bit for bit.
func TestCriticalPathMatchesTopoOrderOnBenchmarks(t *testing.T) {
	frac := schedule.DefaultLatencyModel()
	frac.Tech = iontrap.Technology{Name: "fractional", Latency: map[iontrap.Op]iontrap.Microseconds{
		iontrap.OpOneQubitGate: 0.1, iontrap.OpTwoQubitGate: 0.7, iontrap.OpMeasure: 3.3,
		iontrap.OpZeroPrep: 5.1, iontrap.OpStraightMove: 0.1, iontrap.OpTurn: 0.3,
	}}
	frac.SerialZeroPrepLatency = schedule.SimpleFactoryLatency(frac.Tech)
	var weights []*[quantum.NumGateKinds]float64
	for _, m := range []schedule.LatencyModel{schedule.DefaultLatencyModel(), frac} {
		p := m.Prices()
		weights = append(weights, &p.SpeedOfData, &p.NoOverlap)
	}
	for _, b := range circuits.Benchmarks() {
		for _, bits := range []int{8, 32} {
			c, err := circuits.Generate(b, bits)
			if err != nil {
				t.Fatal(err)
			}
			d := quantum.BuildDAG(c)
			for i, w := range weights {
				finish, makespan := d.CriticalPath(w)
				wantFinish, wantMakespan := quantum.TopoCriticalPath(d, func(g quantum.Gate) float64 { return w[g.Kind] })
				if makespan != wantMakespan || !slices.Equal(finish, wantFinish) {
					t.Errorf("%s, weights %d: CriticalPath makespan %v, reference %v (finish times equal: %v)",
						c.Name, i, makespan, wantMakespan, slices.Equal(finish, wantFinish))
				}
				if got := d.Makespan(w); got != wantMakespan {
					t.Errorf("%s, weights %d: Makespan = %v, want %v", c.Name, i, got, wantMakespan)
				}
			}
		}
	}
}
