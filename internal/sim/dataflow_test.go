package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"speedofdata/internal/quantum"
)

// pricedGate is one gate's price in TestListScheduleMatchesDataflow: it
// draws draw ancillae from fluid source site, then runs for price.
type pricedGate struct {
	site        int
	draw, price float64
}

// listIssuer prices a Dataflow replay's gates as the ListSchedule callback
// of TestListScheduleMatchesDataflow does, through Acquire's fluid branch
// (Draw, then Finish), and logs the issue order and each gate's finish.
type listIssuer struct {
	df     *Dataflow
	gates  []pricedGate
	order  []int
	finish []float64
}

func (r *listIssuer) Issue(fi, _, gi int, ready float64) {
	g := r.gates[gi]
	at := r.df.Draw(fi, g.site, g.draw, ready) + g.price
	r.order = append(r.order, gi)
	r.finish[gi] = at
	r.df.Finish(fi, at)
}

// randomPricedCircuit draws a circuit of up to maxGates one-, two- and
// three-qubit gates on a few qubits, with prices and draws from small
// dyadic sets so that finish times, and so readiness times, tie often.
func randomPricedCircuit(rng *rand.Rand, sources, maxGates int) (*quantum.Circuit, []pricedGate) {
	n := 1 + rng.Intn(6)
	c := quantum.NewCircuit(fmt.Sprintf("random-%d", n), n)
	kinds := []quantum.GateKind{quantum.GateH, quantum.GateCX, quantum.GateToffoli}
	var gates []pricedGate
	for i, total := 0, rng.Intn(maxGates+1); i < total; i++ {
		k := kinds[rng.Intn(len(kinds))]
		if k.Arity() > n {
			continue
		}
		c.Add(k, rng.Perm(n)[:k.Arity()]...)
		gates = append(gates, pricedGate{
			site:  rng.Intn(sources),
			draw:  float64(rng.Intn(3)),
			price: []float64{0.5, 1, 1, 2, 3}[rng.Intn(5)],
		})
	}
	return c, gates
}

// ListSchedule is the kernel-free form of Dataflow's dispatch, and the
// closed-form oracles' parity with the event-driven replays rests on the two
// issuing in one order.  Over random circuits whose readiness times tie
// often, with every gate drawing from one of one to three fluid sources and
// running for a positive price (so it finishes after it became ready), the
// two must issue the gates in the same order and agree on every finish
// time, the ancilla wait and the makespan under ==.
func TestListScheduleMatchesDataflow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rates := []float64{0.25, 0.5, 1, 2, math.Inf(1)}
	ties := 0
	for trial := 0; trial < 500; trial++ {
		srcRates := make([]float64, 1+rng.Intn(3))
		for i := range srcRates {
			srcRates[i] = rates[rng.Intn(len(rates))]
		}
		c, gates := randomPricedCircuit(rng, len(srcRates), 120)

		var df Dataflow
		is := &listIssuer{df: &df, gates: gates, finish: make([]float64, len(gates))}
		df.Reset(is, c)
		if err := df.Sources(0, "fluid", srcRates...); err != nil {
			t.Fatal(err)
		}
		if _, err := df.Run(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		srcs := make([]FluidSource, len(srcRates))
		for i, r := range srcRates {
			if err := srcs[i].Reset(r); err != nil {
				t.Fatal(err)
			}
		}
		var order []int
		finish := make([]float64, len(gates))
		wait, last := 0.0, -1.0
		makespan := ListSchedule(c, func(gi int, ready float64) float64 {
			if ready == last {
				ties++
			}
			last = ready
			g := gates[gi]
			issue := ready
			if at := srcs[g.site].AvailableAt(g.draw); at > issue {
				issue = at
			}
			wait += issue - ready
			order = append(order, gi)
			finish[gi] = issue + g.price
			return finish[gi]
		})

		if !slices.Equal(order, is.order) {
			t.Fatalf("trial %d (%d gates on %d qubits, rates %v): ListSchedule issued %v, Dataflow %v",
				trial, len(gates), c.NumQubits, srcRates, order, is.order)
		}
		if !slices.Equal(finish, is.finish) {
			t.Fatalf("trial %d: ListSchedule finishes %v, Dataflow %v", trial, finish, is.finish)
		}
		if wait != df.Wait(0) || makespan != df.Makespan() || makespan != df.CircuitMakespan(0) {
			t.Fatalf("trial %d: ListSchedule wait %v makespan %v, Dataflow wait %v makespan %v",
				trial, wait, makespan, df.Wait(0), df.Makespan())
		}
		df.Release()
	}
	if ties == 0 {
		t.Fatal("no two consecutive gates became ready at one time; the test checks no tie-break")
	}
}
