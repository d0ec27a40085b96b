package quantum

import "fmt"

// DAG is the dataflow graph of a circuit: node i is gate i of the source
// circuit, and an edge u->v means gate v consumes a qubit last touched by
// gate u.  The scheduler and the microarchitecture simulators both execute
// circuits in dataflow order, which is what "running at the speed of data"
// means in the paper.
type DAG struct {
	Circuit *Circuit
	// Succ[i] lists the successors of gate i; Pred[i] its predecessors.
	Succ [][]int
	Pred [][]int
	// InDegree[i] is len(Pred[i]), kept separately so simulations can copy
	// and decrement it cheaply.
	InDegree []int
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

// TopoOrder returns a topological ordering of the gates.  Because BuildDAG
// only ever adds edges from earlier to later gates, program order is already
// topological; the method exists so callers do not have to rely on that.
func (d *DAG) TopoOrder() ([]int, error) {
	n := len(d.InDegree)
	indeg := make([]int, n)
	copy(indeg, d.InDegree)
	queue := make([]int, 0, n)
	for i, deg := range indeg {
		if deg == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range d.Succ[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("quantum: dependence graph of %q has a cycle", d.Circuit.Name)
	}
	return order, nil
}

// WeightedCriticalPath returns the longest weighted dependence chain where
// weight(i) is the duration of gate i.  finish[i] is the earliest finish time
// of gate i when every gate starts as soon as its predecessors finish
// (infinite hardware); the returned makespan is the maximum finish time.
// This is the "speed of data" execution time of Section 3.
func (d *DAG) WeightedCriticalPath(weight func(g Gate) float64) (finish []float64, makespan float64) {
	order, err := d.TopoOrder()
	if err != nil {
		panic(err)
	}
	finish = make([]float64, len(order))
	for _, u := range order {
		start := 0.0
		for _, p := range d.Pred[u] {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[u] = start + weight(d.Circuit.Gates[u])
		if finish[u] > makespan {
			makespan = finish[u]
		}
	}
	return finish, makespan
}
