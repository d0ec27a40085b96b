package sim

import (
	"fmt"
	"slices"

	"speedofdata/internal/iontrap"
	"speedofdata/internal/quantum"
)

// Issuer is the layer-specific half of a Dataflow replay.  The dispatcher
// hands it every ready gate — flat index fi, gate gi of circuit ci, whose
// operands were all ready at ready — and the issuer prices the gate and ends
// it, at once or from one of its own later events, with exactly one Acquire
// or Finish.
type Issuer interface {
	Issue(fi, ci, gi int, ready float64)
}

// Dataflow replays the dataflow graphs of one or more circuits on a pooled
// kernel; it is the one dispatcher behind microarch.Simulate,
// schedule.ReplayShared and network.ReplayShared.  The circuits' gates share
// one flat index space, circuit by circuit.  A gate becomes ready when its
// last predecessor completes, and a late-priority dispatcher, armed once per
// timestamp, issues the ready gates in (readiness, flat index) order after
// every completion at that timestamp.  That is ListSchedule's order, through
// which the closed-form oracles price gates, and with fluid sources the same
// token-bucket arithmetic, which is what keeps infinite-buffer replays
// bit-identical to them.
//
// Each replay is Reset, given its Sources, Run and Released.  A Dataflow
// lives in a layer's pooled run state, so its arrays and sources are reused
// across runs and the steady-state path schedules without allocating.
type Dataflow struct {
	is       Issuer
	k        *Kernel
	id       HandlerID // the dispatcher on k
	rq       taskQueue
	gates    []gateState // the flat index space
	circuits []circuitState

	fluid  bool
	fluids []FluidSource
	bufs   []*Resource // pooled; the first nbufs belong to this run
	prods  []*Producer
	nbufs  int

	makespan float64
	finished int
	armed    bool
}

// gateState is one gate of the flat index space: where it comes from, its
// readiness, and for a buffered gate the issue values its grant needs.
type gateState struct {
	circuit, gate        int
	indeg                int     // predecessors not yet completed
	ready                float64 // latest predecessor completion
	start, extra, weight float64
}

// circuitState is one replayed circuit.
type circuitState struct {
	dag  *quantum.DAG
	off  int     // flat index of the circuit's gate 0
	wait float64 // ancilla wait past data readiness
	top  float64 // makespan
}

// Dataflow event payloads: gate completions carry the flat index, buffered
// grants the gate count plus the flat index, and the dispatcher dispatchIdx.
const dispatchIdx = -1

// Reset starts a replay of cs issued by is on a kernel from the pool, with
// the dispatcher registered as the kernel's handler for the run.  The gate
// array and the ready queue are sized up front, one allocation each when
// they must grow.
func (d *Dataflow) Reset(is Issuer, cs ...*quantum.Circuit) {
	d.is, d.k = is, AcquireKernel()
	d.id = d.k.Handle(d)
	n := 0
	for _, c := range cs {
		n += len(c.Gates)
	}
	d.gates = slices.Grow(d.gates[:0], n)
	d.rq.items = slices.Grow(d.rq.items[:0], n)
	d.circuits = d.circuits[:0]
	for ci, c := range cs {
		dag := c.DAG()
		d.circuits = append(d.circuits, circuitState{dag: dag, off: len(d.gates)})
		for gi, deg := range dag.InDegree {
			d.gates = append(d.gates, gateState{circuit: ci, gate: gi, indeg: deg})
		}
	}
	d.makespan, d.finished, d.armed, d.nbufs = 0, 0, false, 0
}

// Release returns the kernel to its pool and drops the run's references.
func (d *Dataflow) Release() {
	d.k.Release()
	d.is, d.k = nil, nil
	clear(d.circuits)
}

// Kernel returns the run's kernel, on which a layer registers its own
// handler (Kernel.Handle) and schedules its own events.
func (d *Dataflow) Kernel() *Kernel { return d.k }

// Sources sets up the run's ancilla sources, one per rate in ancillae per
// microsecond.  With buffer <= 0 they are fluid token buckets, the closed
// form's infinite buffer; otherwise each is a finite buffer of that capacity
// behind a rate-matched producer, started now.
func (d *Dataflow) Sources(buffer float64, name string, ratesPerUs ...float64) error {
	if d.fluid = buffer <= 0; d.fluid {
		d.fluids = append(d.fluids[:0], make([]FluidSource, len(ratesPerUs))...)
		for i, rate := range ratesPerUs {
			if err := d.fluids[i].Reset(rate); err != nil {
				return err
			}
		}
		return nil
	}
	for i, rate := range ratesPerUs {
		if i == len(d.bufs) {
			d.bufs = append(d.bufs, new(Resource))
			d.prods = append(d.prods, new(Producer))
		}
		d.bufs[i].Reset(d.k, name, buffer)
		if err := d.prods[i].Reset(d.k, name, d.bufs[i], rate); err != nil {
			return err
		}
		d.prods[i].Start()
		d.nbufs = i + 1
	}
	return nil
}

// Acquire draws n ancillae for gate fi from source site, no earlier than
// start, then finishes the gate extra+weight after the draw.  The time the
// draw waited past start counts toward the gate's circuit's ancilla wait.  A
// fluid source answers at once; a buffered one grants through a kernel
// event.
func (d *Dataflow) Acquire(fi, site int, n, start, extra, weight float64) {
	if d.fluid {
		d.Finish(fi, d.Draw(fi, site, n, start)+extra+weight)
		return
	}
	g := &d.gates[fi]
	g.start, g.extra, g.weight = start, extra, weight
	d.bufs[site].AcquireFire(n, d.id, len(d.gates)+fi)
}

// Draw reserves n ancillae for gate fi from fluid source site and returns
// when they are available, no earlier than start; the difference counts
// toward the gate's circuit's ancilla wait.
func (d *Dataflow) Draw(fi, site int, n, start float64) float64 {
	issue := start
	if t := d.fluids[site].AvailableAt(n); t > issue {
		issue = t
	}
	d.circuits[d.gates[fi].circuit].wait += issue - start
	return issue
}

// Finish schedules gate fi's completion at time at; its successors become
// ready then.
func (d *Dataflow) Finish(fi int, at float64) {
	c := &d.circuits[d.gates[fi].circuit]
	if at > c.top {
		c.top = at
	}
	if at > d.makespan {
		d.makespan = at
	}
	d.k.AtFire(iontrap.Microseconds(at), PriorityNormal, d.id, fi)
}

// Run issues the root gates at time zero and runs the kernel until the last
// gate completes or a layer stops it, reporting an error when gates were left
// unexecuted.
func (d *Dataflow) Run() (Stats, error) {
	for i, g := range d.gates {
		if g.indeg == 0 {
			d.rq.push(task{index: i})
		}
	}
	d.k.AtFire(0, PriorityLate, d.id, dispatchIdx)
	d.armed = true
	stats := d.k.Run()
	if d.finished != len(d.gates) {
		return stats, fmt.Errorf("replay left %d of %d gates unexecuted", len(d.gates)-d.finished, len(d.gates))
	}
	return stats, nil
}

// Makespan returns the last finish time over every circuit.
func (d *Dataflow) Makespan() float64 { return d.makespan }

// CircuitMakespan returns circuit ci's last finish time.
func (d *Dataflow) CircuitMakespan(ci int) float64 { return d.circuits[ci].top }

// Wait returns circuit ci's total ancilla wait past data readiness.
func (d *Dataflow) Wait(ci int) float64 { return d.circuits[ci].wait }

// BufferHighWater returns the peak level over the run's finite buffers
// (zero for fluid sources).
func (d *Dataflow) BufferHighWater() float64 {
	hw := 0.0
	for _, b := range d.bufs[:d.nbufs] {
		hw = max(hw, b.HighWater())
	}
	return hw
}

// ProducerStall returns the time the run's producers spent stalled on full
// buffers, summed over sources (zero for fluid sources).
func (d *Dataflow) ProducerStall() iontrap.Microseconds {
	var stall iontrap.Microseconds
	for _, p := range d.prods[:d.nbufs] {
		stall += p.StallTime()
	}
	return stall
}

// Fire implements Handler for the dispatcher, completions and grants.
func (d *Dataflow) Fire(idx int) {
	switch n := len(d.gates); {
	case idx == dispatchIdx:
		d.dispatch()
	case idx >= n:
		fi := idx - n
		issue := float64(d.k.Now())
		g := d.gates[fi]
		d.circuits[g.circuit].wait += issue - g.start
		d.Finish(fi, issue+g.extra+g.weight)
	default:
		d.completed(idx)
	}
}

// dispatch issues every ready gate in (readiness, flat index) order, until
// the queue empties or a layer stops the run.
func (d *Dataflow) dispatch() {
	d.armed = false
	for d.rq.len() > 0 && !d.k.stopped {
		t := d.rq.pop()
		g := d.gates[t.index]
		d.is.Issue(t.index, g.circuit, g.gate, t.ready)
	}
}

// completed fires at gate fi's finish time: successors whose last operand
// this was become ready and arm the dispatcher, and the last gate stops the
// run (idle producers would otherwise keep ticking).
func (d *Dataflow) completed(fi int) {
	at := float64(d.k.Now())
	c := d.circuits[d.gates[fi].circuit]
	d.finished++
	for _, s := range c.dag.Succ[d.gates[fi].gate] {
		si := c.off + s
		g := &d.gates[si]
		if at > g.ready {
			g.ready = at
		}
		if g.indeg--; g.indeg == 0 {
			d.rq.push(task{index: si, ready: g.ready})
			if !d.armed {
				d.armed = true
				d.k.AtFire(d.k.Now(), PriorityLate, d.id, dispatchIdx)
			}
		}
	}
	if d.finished == len(d.gates) {
		d.k.Stop()
	}
}

// ListSchedule is Dataflow's dispatch without the kernel: it list-schedules
// c's dataflow graph, popping gates in (readiness, gate index) order and
// asking issue for each gate's finish time, given the time its last operand
// became ready.  A gate becomes ready at the latest finish over its
// predecessors.  It returns the makespan, the latest finish.
//
// The closed-form oracles (microarch.SimulateClosedForm,
// schedule.SimulateWithThroughput) price gates through it.  While every
// finish lies after its gate's readiness, its order is the one a Dataflow
// replay issues in, so a closed form whose issue prices a gate as its
// replay's Issuer does reproduces that replay bit for bit.
func ListSchedule(c *quantum.Circuit, issue func(gi int, ready float64) (finish float64)) float64 {
	dag := c.DAG()
	gates := make([]struct {
		ready float64 // latest predecessor finish
		indeg int     // predecessors not yet issued
	}, len(c.Gates))
	var q taskQueue
	for gi, deg := range dag.InDegree {
		gates[gi].indeg = deg
		if deg == 0 {
			q.push(task{index: gi})
		}
	}
	makespan := 0.0
	for q.len() > 0 {
		t := q.pop()
		finish := issue(t.index, t.ready)
		if finish > makespan {
			makespan = finish
		}
		for _, s := range dag.Succ[t.index] {
			g := &gates[s]
			if finish > g.ready {
				g.ready = finish
			}
			if g.indeg--; g.indeg == 0 {
				q.push(task{index: s, ready: g.ready})
			}
		}
	}
	return makespan
}
