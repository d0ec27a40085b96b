package quantum

import "sync"

// DAG is the dataflow graph of a circuit: node i is gate i of the source
// circuit, and an edge u->v means gate v consumes a qubit last touched by
// gate u.  The scheduler and the microarchitecture simulators both execute
// circuits in dataflow order, which is what "running at the speed of data"
// means in the paper.  Edges only run from earlier to later gates, so
// program order is topological.  Besides the graph, a DAG memoises the
// critical-path makespans asked of it (see Makespan), which are as fixed as
// the gate sequence it was built from.
type DAG struct {
	Circuit *Circuit
	// Succ[i] lists the successors of gate i; Pred[i] its predecessors.
	Succ [][]int
	Pred [][]int
	// InDegree[i] is len(Pred[i]), kept separately so simulations can copy
	// and decrement it cheaply.
	InDegree []int

	// mu guards makespans, Makespan's memo: one entry per weight array.
	mu        sync.Mutex
	makespans []makespanEntry
}

// makespanEntry is one memoised Makespan result.
type makespanEntry struct {
	w        [NumGateKinds]float64
	makespan float64
}

// BuildDAG constructs the dataflow graph of the circuit.  Gates are connected
// through the last writer of each qubit; measurements and preparations take
// part in the dependence chain like any other gate (a preparation after a
// measurement models qubit reuse).
//
// The builder is allocation-lean — it used to sit on the profile of every
// sweep.  Edges are counted in a first pass (duplicate predecessors deduped
// with a stamp array instead of a per-gate map) and laid out in two shared
// backing arrays in a second, so a build costs a handful of allocations
// regardless of gate count.  Edge order is unchanged: Succ in discovery
// (gate-index) order, Pred in operand order.
func BuildDAG(c *Circuit) *DAG {
	n := len(c.Gates)
	d := &DAG{
		Circuit:  c,
		Succ:     make([][]int, n),
		Pred:     make([][]int, n),
		InDegree: make([]int, n),
	}
	lastWriter := make([]int, c.NumQubits)
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	// Pass 1: count each gate's in- and out-degree.  stamp[w] == i+1 marks
	// writer w as already linked to gate i (a two-qubit gate whose operands
	// share a last writer contributes one edge, not two).
	stamp := make([]int, n)
	outDeg := make([]int, n)
	edges := 0
	for i, g := range c.Gates {
		for _, q := range g.Qubits {
			if w := lastWriter[q]; w >= 0 && stamp[w] != i+1 {
				stamp[w] = i + 1
				d.InDegree[i]++
				outDeg[w]++
				edges++
			}
		}
		for _, q := range g.Qubits {
			lastWriter[q] = i
		}
	}
	// Pass 2: carve per-gate slices out of two shared arrays and fill them
	// in the same discovery order as pass 1.
	succBack := make([]int, 0, edges)
	predBack := make([]int, 0, edges)
	pos := 0
	for i := range d.Succ {
		d.Succ[i] = succBack[pos : pos : pos+outDeg[i]]
		pos += outDeg[i]
	}
	pos = 0
	for i := range d.Pred {
		d.Pred[i] = predBack[pos : pos : pos+d.InDegree[i]]
		pos += d.InDegree[i]
	}
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	for i, g := range c.Gates {
		for _, q := range g.Qubits {
			// A distinct stamp space (offset by n) redoes the dedup.
			if w := lastWriter[q]; w >= 0 && stamp[w] != n+i+1 {
				stamp[w] = n + i + 1
				d.Succ[w] = append(d.Succ[w], i)
				d.Pred[i] = append(d.Pred[i], w)
			}
		}
		for _, q := range g.Qubits {
			lastWriter[q] = i
		}
	}
	return d
}

// DAG returns the circuit's dataflow graph, built once and cached: sweeps
// simulate the same circuit at hundreds of configurations, and the graph
// only depends on the gate sequence.  Call it only after the circuit is
// fully constructed (appending gates afterwards would desynchronise the
// cache); the returned DAG is shared and must be treated as read-only —
// simulators copy InDegree before decrementing it.  Safe for concurrent
// use.
func (c *Circuit) DAG() *DAG {
	c.dagOnce.Do(func() { c.dag = BuildDAG(c) })
	return c.dag
}

// CriticalPath returns the longest weighted dependence chain when every
// gate of kind k takes w[k].  finish[i] is the earliest finish time of gate i
// when every gate starts as soon as its predecessors finish (infinite
// hardware); the returned makespan is the maximum finish time.  With the
// speed-of-data weights this is the "speed of data" execution time of
// Section 3.  The walk follows program order, which is topological (see
// DAG).
func (d *DAG) CriticalPath(w *[NumGateKinds]float64) (finish []float64, makespan float64) {
	gates := d.Circuit.Gates
	finish = make([]float64, len(gates))
	for u := range finish {
		start := 0.0
		for _, p := range d.Pred[u] {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[u] = start + w[gates[u].Kind]
		if finish[u] > makespan {
			makespan = finish[u]
		}
	}
	return finish, makespan
}

// Makespan returns CriticalPath's makespan under w, computed once per DAG
// and weight array: replays report a circuit's speed-of-data bound on every
// run, and it only depends on the gate sequence and the weights.  The memo
// holds one entry per distinct array and dies with the DAG.  Safe for
// concurrent use.
func (d *DAG) Makespan(w *[NumGateKinds]float64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range d.makespans {
		if e.w == *w {
			return e.makespan
		}
	}
	_, makespan := d.CriticalPath(w)
	// An array holding a NaN never equals itself, so an entry for it could
	// never be found again: leave it out rather than grow the memo.
	if *w == *w {
		d.makespans = append(d.makespans, makespanEntry{*w, makespan})
	}
	return makespan
}
