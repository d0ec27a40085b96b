package quantum

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
)

// Circuit is an ordered list of gates over a fixed set of qubits.  The same
// structure is used both for logical circuits (qubits are encoded blocks) and
// physical circuits (qubits are ions); the interpretation is up to the
// consumer.
type Circuit struct {
	// Name identifies the circuit in reports (e.g. "32-bit QCLA").
	Name string
	// NumQubits is the number of qubits the circuit acts on.
	NumQubits int
	// Gates is the gate sequence in program order.
	Gates []Gate

	// The memos below hold values derived from the name, the qubit count
	// and the gate sequence, each computed on its first use.  The contract
	// is that the circuit is final by then: an edit made afterwards would
	// not reach them.  The generators build each circuit with NewCircuit
	// and Append before anything reads it, and share it read-only after.

	// dag memoises the dataflow graph (see DAG), which in turn memoises
	// its critical-path makespan per weight array (see DAG.Makespan).
	dagOnce sync.Once
	dag     *DAG
	// fp memoises Fingerprint.
	fpOnce sync.Once
	fp     string
	// invalid memoises Validate's result.
	validOnce sync.Once
	invalid   error
}

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(name string, n int) *Circuit {
	if n < 0 {
		panic(fmt.Sprintf("quantum: negative qubit count %d", n))
	}
	return &Circuit{Name: name, NumQubits: n}
}

// Append validates and appends gates to the circuit.  It returns the circuit
// to allow chaining.
func (c *Circuit) Append(gates ...Gate) *Circuit {
	for _, g := range gates {
		if err := g.Validate(); err != nil {
			panic(err)
		}
		for _, q := range g.Qubits {
			if q >= c.NumQubits {
				panic(fmt.Sprintf("quantum: circuit %q has %d qubits but gate %s references q%d",
					c.Name, c.NumQubits, g, q))
			}
		}
		c.Gates = append(c.Gates, g)
	}
	return c
}

// Add builds a gate from kind and qubits and appends it.
func (c *Circuit) Add(kind GateKind, qubits ...int) *Circuit {
	return c.Append(Gate{Kind: kind, Qubits: qubits})
}

// Len returns the number of gates in the circuit.
func (c *Circuit) Len() int { return len(c.Gates) }

// Fingerprint returns a stable structural hash of the circuit (name, qubit
// count and the full gate sequence), suitable for keying experiment caches
// and seeding their RNG streams: equal circuits always share a fingerprint,
// and distinct ones collide only as often as two 64-bit FNV-1a hashes do.
// It is computed once, on first use (see the memo contract on Circuit), and
// is safe for concurrent use.
func (c *Circuit) Fingerprint() string {
	c.fpOnce.Do(func() {
		h := fnv.New64a()
		b := fmt.Appendf(nil, "%s|%d|%d|", c.Name, c.NumQubits, len(c.Gates))
		for _, g := range c.Gates {
			h.Write(b)
			// The gate hashes as fmt's "%d%v%g;" of its kind, qubits and
			// angle prints it.
			b = strconv.AppendInt(b[:0], int64(g.Kind), 10)
			b = append(b, '[')
			for i, q := range g.Qubits {
				if i > 0 {
					b = append(b, ' ')
				}
				b = strconv.AppendInt(b, int64(q), 10)
			}
			b = append(b, ']')
			b = strconv.AppendFloat(b, g.Angle, 'g', -1, 64)
			b = append(b, ';')
		}
		h.Write(b)
		c.fp = fmt.Sprintf("%s/%d/%dq/%x", c.Name, len(c.Gates), c.NumQubits, h.Sum64())
	})
	return c.fp
}

// Validate checks every gate references qubits inside the circuit.  A
// circuit built by Append always passes, since Append panics on the gates
// Validate rejects; the check runs once, on first use (see the memo
// contract on Circuit), and is safe for concurrent use.
func (c *Circuit) Validate() error {
	c.validOnce.Do(func() { c.invalid = c.validate() })
	return c.invalid
}

// validate is Validate's check.
func (c *Circuit) validate() error {
	for i, g := range c.Gates {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
		for _, q := range g.Qubits {
			if q >= c.NumQubits {
				return fmt.Errorf("gate %d (%s): qubit %d out of range (circuit has %d)", i, g, q, c.NumQubits)
			}
		}
	}
	return nil
}

// Stats summarises a circuit's composition, used by the characterisation
// tables in Section 3.
type Stats struct {
	NumQubits int
	// TotalGates counts every gate, including preparations and measurements.
	TotalGates int
	// CountByKind is the per-kind gate count.
	CountByKind map[GateKind]int
	// Transversal and NonTransversal split gates by the [[7,1,3]]
	// transversality classification of Section 2.1.
	Transversal    int
	NonTransversal int
	// Pi8Gates counts gates that consume an encoded π/8 ancilla (T/Tdg).
	Pi8Gates int
	// TwoQubitGates counts gates with arity >= 2.
	TwoQubitGates int
	// Depth is the dataflow depth (longest chain of dependent gates).
	Depth int
}

// ComputeStats analyses the circuit.
func (c *Circuit) ComputeStats() Stats {
	s := Stats{
		NumQubits:   c.NumQubits,
		TotalGates:  len(c.Gates),
		CountByKind: make(map[GateKind]int),
	}
	lastLayer := make([]int, c.NumQubits)
	for _, g := range c.Gates {
		s.CountByKind[g.Kind]++
		if g.Kind.TransversalOnSteane() {
			s.Transversal++
		} else {
			s.NonTransversal++
		}
		if g.Kind.RequiresPi8Ancilla() {
			s.Pi8Gates++
		}
		if g.Kind.Arity() >= 2 {
			s.TwoQubitGates++
		}
		layer := 0
		for _, q := range g.Qubits {
			if lastLayer[q] > layer {
				layer = lastLayer[q]
			}
		}
		layer++
		for _, q := range g.Qubits {
			lastLayer[q] = layer
		}
		if layer > s.Depth {
			s.Depth = layer
		}
	}
	return s
}
