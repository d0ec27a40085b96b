package quantum

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBuildDAGFigure1(t *testing.T) {
	c := buildSampleCircuit()
	d := BuildDAG(c)
	// Gate indices: 0:H q0, 1:H q1, 2:H q2, 3:CX q0q1, 4:T q1, 5:CX q0q1, 6:T q1.
	var roots []int
	for i, deg := range d.InDegree {
		if deg == 0 {
			roots = append(roots, i)
		}
	}
	if len(roots) != 3 {
		t.Fatalf("roots = %v, want the three H gates", roots)
	}
	// CX at 3 depends on both H q0 (0) and H q1 (1).
	if len(d.Pred[3]) != 2 {
		t.Errorf("CX preds = %v, want 2 predecessors", d.Pred[3])
	}
	// T at 4 depends only on the CX.
	if len(d.Pred[4]) != 1 || d.Pred[4][0] != 3 {
		t.Errorf("T preds = %v, want [3]", d.Pred[4])
	}
	// H q2 has no successors.
	if len(d.Succ[2]) != 0 {
		t.Errorf("H q2 successors = %v, want none", d.Succ[2])
	}
}

// topoOrder is the Kahn's-algorithm topological order the critical path
// used to walk; CriticalPath now walks program order, and TopoCriticalPath
// keeps the old walk as its reference.
func topoOrder(d *DAG) ([]int, error) {
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

// TopoCriticalPath is the critical path as it was computed before the
// per-kind weight arrays: in topological order, one weight call per gate.
// CriticalPath must match it under ==.  It is exported for the benchmark
// circuits' test in dag_benchmarks_test.go, whose package can import the
// generators.
func TopoCriticalPath(d *DAG, weight func(g Gate) float64) (finish []float64, makespan float64) {
	order, err := topoOrder(d)
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

// kindWeights tabulates a per-kind weight function.
func kindWeights(f func(k GateKind) float64) *[NumGateKinds]float64 {
	var w [NumGateKinds]float64
	for k := range NumGateKinds {
		w[k] = f(k)
	}
	return &w
}

func unitWeights() *[NumGateKinds]float64 {
	return kindWeights(func(GateKind) float64 { return 1 })
}

// The reference topological order is valid, and so is program order: every
// edge runs from an earlier gate to a later one, which CriticalPath relies
// on.
func TestTopoOrderIsValid(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cs := []*Circuit{buildSampleCircuit()}
	for range 20 {
		cs = append(cs, randomCircuit(r, 8, 80))
	}
	for _, c := range cs {
		d := BuildDAG(c)
		order, err := topoOrder(d)
		if err != nil {
			t.Fatal(err)
		}
		pos := make([]int, len(order))
		for i, g := range order {
			pos[g] = i
		}
		for u, succs := range d.Succ {
			for _, v := range succs {
				if pos[u] >= pos[v] {
					t.Fatalf("topological order violated: %d before %d", u, v)
				}
				if u >= v {
					t.Fatalf("edge %d->%d runs backwards in program order", u, v)
				}
			}
		}
	}
}

// CriticalPath, walked in program order over a weight array, gives the
// reference's finish times and makespan bit for bit, and Makespan, first
// computed and then memoised, gives the same makespan.
func TestCriticalPathMatchesTopoOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := range 200 {
		c := randomCircuit(r, 12, 300)
		// Fractional weights: additions round, so a changed order of
		// operations would show.
		w := kindWeights(func(GateKind) float64 { return r.Float64() * 100 })
		d := BuildDAG(c)
		finish, makespan := d.CriticalPath(w)
		wantFinish, wantMakespan := TopoCriticalPath(d, func(g Gate) float64 { return w[g.Kind] })
		if makespan != wantMakespan || !slices.Equal(finish, wantFinish) {
			t.Fatalf("circuit %d: CriticalPath makespan %v, reference %v (finish times equal: %v)",
				i, makespan, wantMakespan, slices.Equal(finish, wantFinish))
		}
		for range 2 {
			if got := d.Makespan(w); got != wantMakespan {
				t.Fatalf("circuit %d: Makespan = %v, want %v", i, got, wantMakespan)
			}
		}
	}
}

func TestCriticalPathDepthMatchesStats(t *testing.T) {
	c := buildSampleCircuit()
	d := BuildDAG(c)
	// With unit weights the longest dependence chain is the depth.
	_, depth := d.CriticalPath(unitWeights())
	if int(depth) != c.ComputeStats().Depth {
		t.Errorf("DAG depth = %v, stats depth = %d", depth, c.ComputeStats().Depth)
	}
}

// byArity weighs two-qubit gates 10 and the rest 1.
func byArity(k GateKind) float64 {
	if k.Arity() >= 2 {
		return 10
	}
	return 1
}

func TestWeightedCriticalPath(t *testing.T) {
	c := buildSampleCircuit()
	d := BuildDAG(c)
	// Weight every gate 1: makespan equals depth.
	_, makespan := d.CriticalPath(unitWeights())
	if makespan != 5 {
		t.Errorf("unit-weight makespan = %v, want 5", makespan)
	}
	// Two-qubit gates 10, single-qubit 1: the q1 chain is H(1) CX(10) T(1) CX(10) T(1) = 23.
	finish, makespan := d.CriticalPath(kindWeights(byArity))
	if makespan != 23 {
		t.Errorf("weighted makespan = %v, want 23", makespan)
	}
	if len(finish) != c.Len() {
		t.Errorf("finish has %d entries, want %d", len(finish), c.Len())
	}
	for i, f := range finish {
		if f <= 0 {
			t.Errorf("gate %d finish time %v not positive", i, f)
		}
	}
}

func TestDAGEmptyCircuit(t *testing.T) {
	c := NewCircuit("empty", 3)
	d := BuildDAG(c)
	if len(d.InDegree) != 0 {
		t.Error("empty circuit should have no gates in its DAG")
	}
	order, err := topoOrder(d)
	if err != nil || len(order) != 0 {
		t.Error("empty circuit topo order should be empty")
	}
	if finish, depth := d.CriticalPath(unitWeights()); depth != 0 || len(finish) != 0 {
		t.Error("empty circuit depth should be 0")
	}
	if d.Makespan(unitWeights()) != 0 {
		t.Error("empty circuit makespan should be 0")
	}
}

// Property: for random circuits, (1) the weighted makespan with unit weights
// equals the depth, (2) the makespan is at least the largest single weight
// and at most the sum of all weights.
func TestWeightedCriticalPathBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCircuit(r, 6, 50)
		d := BuildDAG(c)
		_, unitMakespan := d.CriticalPath(unitWeights())
		if int(unitMakespan) != c.ComputeStats().Depth {
			return false
		}
		_, makespan := d.CriticalPath(kindWeights(byArity))
		sum := 0.0
		maxW := 0.0
		for _, g := range c.Gates {
			w := byArity(g.Kind)
			sum += w
			if w > maxW {
				maxW = w
			}
		}
		return makespan >= maxW-1e-9 && makespan <= sum+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: every non-root gate has at least one predecessor that shares a
// qubit with it.
func TestDAGEdgesShareQubitsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCircuit(r, 6, 40)
		d := BuildDAG(c)
		for i := range c.Gates {
			for _, p := range d.Pred[i] {
				if !gatesShareQubit(c.Gates[i], c.Gates[p]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func gatesShareQubit(a, b Gate) bool {
	for _, qa := range a.Qubits {
		for _, qb := range b.Qubits {
			if qa == qb {
				return true
			}
		}
	}
	return false
}

// Property: serial circuits (every gate on the same qubit) have depth equal
// to gate count and weighted makespan equal to the weight sum.
func TestSerialCircuitProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%40) + 1
		c := NewCircuit("serial", 1)
		for i := 0; i < n; i++ {
			c.Add(GateT, 0)
		}
		depth := c.ComputeStats().Depth
		_, makespan := BuildDAG(c).CriticalPath(kindWeights(func(GateKind) float64 { return 2.5 }))
		return depth == n && math.Abs(makespan-2.5*float64(n)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
