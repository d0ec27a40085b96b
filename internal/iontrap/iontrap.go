// Package iontrap models the ion-trap technology abstraction used throughout
// the paper (Section 4.1): physical operation latencies (Tables 1 and 4),
// areas counted in macroblocks (the layout building blocks of Figure 9), and
// symbolic latency expressions that can be evaluated against any technology
// parameter set.
//
// All latencies are expressed in microseconds.  The paper presents most of
// its results symbolically ("2×t2q + 4×tturn + ...") before substituting the
// ion-trap values; LatencyExpr mirrors that style so factory and schedule
// code can be checked term-for-term against the published formulas.
package iontrap

import (
	"fmt"
	"sort"
	"strings"
)

// Microseconds is the unit for all latencies in this package.
type Microseconds float64

// Milliseconds converts a latency to milliseconds.
func (m Microseconds) Milliseconds() float64 { return float64(m) / 1000.0 }

// Area is a chip area measured in macroblocks.  The paper reports every area
// this way because electrode structure is still evolving (Section 4.1).
type Area float64

// Op identifies a primitive physical operation whose latency is a technology
// parameter.  These are exactly the rows of Tables 1 and 4 of the paper.
type Op int

const (
	// OpOneQubitGate is a single-qubit physical gate (t1q).
	OpOneQubitGate Op = iota
	// OpTwoQubitGate is a two-qubit physical gate (t2q).
	OpTwoQubitGate
	// OpMeasure is a physical measurement (tmeas).
	OpMeasure
	// OpZeroPrep is a physical |0> preparation (tprep).
	OpZeroPrep
	// OpStraightMove is a move across a single macroblock (tmove).
	OpStraightMove
	// OpTurn is a move around a corner (tturn).
	OpTurn

	numOps
)

var opNames = [...]string{
	OpOneQubitGate: "t1q",
	OpTwoQubitGate: "t2q",
	OpMeasure:      "tmeas",
	OpZeroPrep:     "tprep",
	OpStraightMove: "tmove",
	OpTurn:         "tturn",
}

// String returns the symbolic name the paper uses for the operation latency.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// Ops returns all primitive operations in a stable order.
func Ops() []Op {
	ops := make([]Op, numOps)
	for i := range ops {
		ops[i] = Op(i)
	}
	return ops
}

// Technology holds the latency of every primitive physical operation.
type Technology struct {
	// Name identifies the parameter set (e.g. "ion trap (Steane 2004)").
	Name string
	// Latency maps each primitive operation to its duration.
	Latency map[Op]Microseconds
}

// Default returns the ion-trap technology parameters from Tables 1 and 4:
// one-qubit gate 1 µs, two-qubit gate 10 µs, measurement 50 µs, physical zero
// prepare 51 µs, straight move 1 µs, turn 10 µs.
func Default() Technology {
	return Technology{
		Name: "ion trap",
		Latency: map[Op]Microseconds{
			OpOneQubitGate: 1,
			OpTwoQubitGate: 10,
			OpMeasure:      50,
			OpZeroPrep:     51,
			OpStraightMove: 1,
			OpTurn:         10,
		},
	}
}

// TechKey is a comparable identity of a Technology: its name plus the full
// latency table in op order.  Derived quantities (factory designs, matched
// bandwidths) depend only on this, so packages memoise them in maps keyed
// by it.
type TechKey struct {
	Name    string
	Latency [numOps]Microseconds
}

// Key returns the technology's comparable cache identity.
func (t Technology) Key() TechKey {
	k := TechKey{Name: t.Name}
	for op, l := range t.Latency {
		if op >= 0 && op < numOps {
			k.Latency[op] = l
		}
	}
	return k
}

// Validate reports an error if any primitive operation is missing or has a
// non-positive latency.
func (t Technology) Validate() error {
	if t.Latency == nil {
		return fmt.Errorf("iontrap: technology %q has no latency table", t.Name)
	}
	for _, op := range Ops() {
		l, ok := t.Latency[op]
		if !ok {
			return fmt.Errorf("iontrap: technology %q missing latency for %s", t.Name, op)
		}
		if l <= 0 {
			return fmt.Errorf("iontrap: technology %q has non-positive latency %v for %s", t.Name, l, op)
		}
	}
	return nil
}

// LatencyOf returns the latency of a single primitive operation.
func (t Technology) LatencyOf(op Op) Microseconds {
	return t.Latency[op]
}

// LatencyExpr is a symbolic latency: an integer combination of primitive
// operation latencies, e.g. "3×t2q + 6×tturn + 5×tmove".
type LatencyExpr struct {
	counts map[Op]int
}

// NewLatencyExpr returns an empty (zero) latency expression.
func NewLatencyExpr() LatencyExpr {
	return LatencyExpr{counts: make(map[Op]int)}
}

// Expr builds a latency expression from (op, count) pairs.  It panics if the
// argument list has odd length, which indicates a programming error.
func Expr(pairs ...interface{}) LatencyExpr {
	if len(pairs)%2 != 0 {
		panic("iontrap.Expr: arguments must be (Op, count) pairs")
	}
	e := NewLatencyExpr()
	for i := 0; i < len(pairs); i += 2 {
		op, ok := pairs[i].(Op)
		if !ok {
			panic(fmt.Sprintf("iontrap.Expr: argument %d is not an Op", i))
		}
		n, ok := pairs[i+1].(int)
		if !ok {
			panic(fmt.Sprintf("iontrap.Expr: argument %d is not an int", i+1))
		}
		e.Add(op, n)
	}
	return e
}

// Add adds n occurrences of op to the expression and returns the expression
// for chaining.
func (e LatencyExpr) Add(op Op, n int) LatencyExpr {
	if e.counts == nil {
		panic("iontrap.LatencyExpr: use NewLatencyExpr or Expr to construct")
	}
	e.counts[op] += n
	return e
}

// Eval evaluates the expression against a technology parameter set.
func (e LatencyExpr) Eval(t Technology) Microseconds {
	var total Microseconds
	for op, n := range e.counts {
		total += Microseconds(n) * t.LatencyOf(op)
	}
	return total
}

// String renders the expression in the paper's style, with terms in a fixed
// operation order, e.g. "3*t2q + 6*tturn + 5*tmove".
func (e LatencyExpr) String() string {
	type term struct {
		op Op
		n  int
	}
	var terms []term
	for op, n := range e.counts {
		if n != 0 {
			terms = append(terms, term{op, n})
		}
	}
	if len(terms) == 0 {
		return "0"
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].op < terms[j].op })
	parts := make([]string, 0, len(terms))
	for _, t := range terms {
		if t.n == 1 {
			parts = append(parts, t.op.String())
		} else {
			parts = append(parts, fmt.Sprintf("%d*%s", t.n, t.op))
		}
	}
	return strings.Join(parts, " + ")
}
