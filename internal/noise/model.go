// Package noise evaluates ancilla preparation protocols under the paper's
// error model (Section 2.2): an independent error probability for each gate
// and qubit-movement operation (10^-4 per gate, 10^-6 per movement op), with
// two-qubit gates propagating bit and phase flips between qubits.  Errors are
// tracked in the Pauli frame (X and Z bitmasks per physical qubit), which is
// exact for the Clifford circuits that make up the encoded-zero preparation
// protocols; a T gate is treated with the standard Pauli-twirl
// approximation.
//
// Every protocol runs as a compiled trial program (compile.go), and two
// estimators sit on it: Monte Carlo (the paper's methodology; dense, sparse
// or bit-sliced, see Sampling) and FirstOrder, a deterministic enumeration
// of every single fault that gives the terms linear in the error rates
// exactly.  Figure 4 reports both.  The op-list interpreter the compiled
// program replaced is kept in the tests as their oracle.
package noise

import (
	"fmt"
	"strconv"
)

// Model holds the error-model parameters of Section 2.2.
type Model struct {
	// GateError is the independent error probability per physical gate,
	// preparation or measurement (the paper uses 1e-4).
	GateError float64
	// MoveError is the error probability per movement operation (1e-6).
	MoveError float64
	// MovementOpsPerTwoQubitGate is how many movement operations accompany
	// each two-qubit gate in the layout; the paper derives movement from its
	// detailed layout tool, we expose it as a parameter (default 6, roughly
	// the per-gate share of the simple factory's 30 moves + 8 turns).
	MovementOpsPerTwoQubitGate int
}

// DefaultModel returns the paper's error parameters.
func DefaultModel() Model {
	return Model{
		GateError:                  1e-4,
		MoveError:                  1e-6,
		MovementOpsPerTwoQubitGate: 6,
	}
}

// AppendKey implements engine.Keyer: the byte-exact %v rendering of the
// struct ("{GateError MoveError MovementOpsPerTwoQubitGate}") without fmt's
// reflection.  Monte Carlo chunk keys embed the model and are built per
// chunk on the experiment hot path; the rendering must stay identical
// because job keys seed the chunk RNG streams.
func (m Model) AppendKey(b []byte) []byte {
	b = append(b, '{')
	b = strconv.AppendFloat(b, m.GateError, 'g', -1, 64)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, m.MoveError, 'g', -1, 64)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(m.MovementOpsPerTwoQubitGate), 10)
	return append(b, '}')
}

// Validate reports an error for out-of-range probabilities.
func (m Model) Validate() error {
	if m.GateError < 0 || m.GateError > 1 {
		return fmt.Errorf("noise: gate error %v outside [0,1]", m.GateError)
	}
	if m.MoveError < 0 || m.MoveError > 1 {
		return fmt.Errorf("noise: movement error %v outside [0,1]", m.MoveError)
	}
	if m.MovementOpsPerTwoQubitGate < 0 {
		return fmt.Errorf("noise: negative movement op count %d", m.MovementOpsPerTwoQubitGate)
	}
	return nil
}

// PauliError is a single-qubit Pauli fault used for injection.
type PauliError int

const (
	// PauliNone injects nothing.
	PauliNone PauliError = iota
	// PauliX injects a bit flip.
	PauliX
	// PauliY injects both a bit and a phase flip.
	PauliY
	// PauliZ injects a phase flip.
	PauliZ
)

// HasX reports whether the fault includes a bit-flip component.
func (p PauliError) HasX() bool { return p == PauliX || p == PauliY }

// HasZ reports whether the fault includes a phase-flip component.
func (p PauliError) HasZ() bool { return p == PauliZ || p == PauliY }

// Fault is a concrete error event at one error location: a Pauli on each
// involved qubit (second entry unused for one-qubit locations) or a
// measurement outcome flip.
type Fault struct {
	First, Second PauliError
	FlipOutcome   bool
}

// LocationKind classifies error locations for enumeration.
type LocationKind int

const (
	// LocPrep is a physical state preparation.
	LocPrep LocationKind = iota
	// LocOneQubit is a one-qubit gate.
	LocOneQubit
	// LocTwoQubit is a two-qubit gate.
	LocTwoQubit
	// LocMeasure is a measurement.
	LocMeasure
	// LocMove is a qubit movement operation.
	LocMove
)

// ErrorProbability returns the model's error probability for a location kind.
func (m Model) ErrorProbability(kind LocationKind) float64 {
	if kind == LocMove {
		return m.MoveError
	}
	return m.GateError
}

// FaultChoices enumerates the equally likely non-trivial faults at a location
// of the given kind, matching the sampling used by the Monte Carlo simulator.
// A faulty two-qubit gate deposits a Pauli error on one of its two
// participants; correlated multi-qubit errors then arise through the
// propagation of bit and phase flips by subsequent two-qubit gates, which is
// the effect the paper's methodology highlights (Section 2.2).
func FaultChoices(kind LocationKind) []Fault {
	switch kind {
	case LocMeasure:
		return []Fault{{FlipOutcome: true}}
	case LocPrep:
		// A faulty |0> preparation produces |1>: a bit flip.  (A phase flip
		// on a fresh |0> acts trivially and is not an error.)
		return []Fault{{First: PauliX}}
	case LocTwoQubit:
		return []Fault{
			{First: PauliX}, {First: PauliY}, {First: PauliZ},
			{Second: PauliX}, {Second: PauliY}, {Second: PauliZ},
		}
	default: // one-qubit gate, movement
		return []Fault{{First: PauliX}, {First: PauliY}, {First: PauliZ}}
	}
}
