// Package quantum provides the circuit intermediate representation shared by
// every other package: gate kinds, logical circuits over encoded qubits,
// physical circuits over individual ions, and the dataflow DAG used by the
// scheduler and the microarchitecture simulators.
//
// The paper distinguishes two levels:
//
//   - logical circuits, whose qubits are encoded [[7,1,3]] blocks and whose
//     gates are classified transversal vs non-transversal (Section 2.1);
//   - physical circuits, whose qubits are single ions and whose operations
//     carry the ion-trap latencies of Tables 1 and 4.
//
// Both levels share the Gate vocabulary defined here.
package quantum

import "fmt"

// GateKind identifies a quantum gate or circuit-level operation.
type GateKind int

const (
	// GateI is the identity (used for explicit waits).
	GateI GateKind = iota
	// GateX is the Pauli X (bit flip).
	GateX
	// GateY is the Pauli Y.
	GateY
	// GateZ is the Pauli Z (phase flip).
	GateZ
	// GateH is the Hadamard gate.
	GateH
	// GateS is the phase gate (sqrt of Z, π/4 rotation about Z).
	GateS
	// GateSdg is the inverse phase gate.
	GateSdg
	// GateT is the π/8 gate (π/4 phase), the non-transversal gate of the
	// [[7,1,3]] code that requires an encoded π/8 ancilla (Section 2.4).
	GateT
	// GateTdg is the inverse π/8 gate.
	GateTdg
	// GateRz is a Z rotation by an arbitrary angle (π/2^k in the QFT); it
	// must be synthesised from H/T sequences (Section 2.5).
	GateRz
	// GateCX is the controlled-NOT gate.
	GateCX
	// GateCZ is the controlled-Z gate.
	GateCZ
	// GateCS is the controlled-S gate (appears in the π/8 ancilla prep).
	GateCS
	// GateCPhase is a controlled phase rotation by an arbitrary angle, the
	// gate the QFT is built from before decomposition.
	GateCPhase
	// GateToffoli is the doubly-controlled NOT; benchmark generators expand
	// it into Clifford+T before scheduling.
	GateToffoli
	// GateMeasure is a computational-basis measurement.
	GateMeasure
	// GateMeasureX is an X-basis measurement.
	GateMeasureX
	// GatePrepZero prepares |0>.
	GatePrepZero
	// GatePrepPlus prepares |+>.
	GatePrepPlus

	// NumGateKinds is the number of gate kinds: the defined kinds are
	// exactly [0, NumGateKinds), so tables indexed by kind can be arrays.
	NumGateKinds
)

var gateNames = [NumGateKinds]string{
	GateI:        "I",
	GateX:        "X",
	GateY:        "Y",
	GateZ:        "Z",
	GateH:        "H",
	GateS:        "S",
	GateSdg:      "Sdg",
	GateT:        "T",
	GateTdg:      "Tdg",
	GateRz:       "Rz",
	GateCX:       "CX",
	GateCZ:       "CZ",
	GateCS:       "CS",
	GateCPhase:   "CPhase",
	GateToffoli:  "Toffoli",
	GateMeasure:  "M",
	GateMeasureX: "Mx",
	GatePrepZero: "Prep0",
	GatePrepPlus: "Prep+",
}

// String returns the conventional short name of the gate.
func (k GateKind) String() string {
	if k < 0 || k >= NumGateKinds {
		return fmt.Sprintf("gate(%d)", int(k))
	}
	return gateNames[k]
}

// Arity returns how many qubits the gate acts on.
func (k GateKind) Arity() int {
	switch k {
	case GateCX, GateCZ, GateCS, GateCPhase:
		return 2
	case GateToffoli:
		return 3
	default:
		return 1
	}
}

// IsMeasurement reports whether the gate is a measurement.
func (k GateKind) IsMeasurement() bool {
	return k == GateMeasure || k == GateMeasureX
}

// IsPreparation reports whether the gate is a state preparation.
func (k GateKind) IsPreparation() bool {
	return k == GatePrepZero || k == GatePrepPlus
}

// TransversalOnSteane reports whether the encoded gate can be applied
// transversally on the [[7,1,3]] CSS code.  The paper lists CX, X, Y, Z,
// Phase (S) and Hadamard as transversal; the π/8 gate, arbitrary rotations,
// Toffoli and controlled-phase are not (Sections 2.1, 2.4, 2.5).
func (k GateKind) TransversalOnSteane() bool {
	switch k {
	case GateI, GateX, GateY, GateZ, GateH, GateS, GateSdg, GateCX, GateCZ,
		GateMeasure, GateMeasureX, GatePrepZero, GatePrepPlus:
		return true
	case GateT, GateTdg, GateRz, GateCPhase, GateToffoli, GateCS:
		return false
	default:
		return false
	}
}

// RequiresPi8Ancilla reports whether performing the encoded gate consumes an
// encoded π/8 ancilla (the paper's fault-tolerant T construction, Fig 5a).
func (k GateKind) RequiresPi8Ancilla() bool {
	return k == GateT || k == GateTdg
}

// Gate is one operation in a circuit.  Qubits are indices into the owning
// circuit's qubit list; for controlled gates the control(s) come first and
// the target last.  Angle is only meaningful for GateRz and GateCPhase and
// is expressed as the rotation angle in units of π (e.g. 1/8 for π/8... the
// convention used throughout is Angle = θ/π).
type Gate struct {
	Kind   GateKind
	Qubits []int
	Angle  float64
}

// Validate reports an error if the gate's kind is undefined, or if its qubit
// list does not match its arity or contains duplicates.
func (g Gate) Validate() error {
	if g.Kind < 0 || g.Kind >= NumGateKinds {
		return fmt.Errorf("quantum: undefined gate kind %d", int(g.Kind))
	}
	if len(g.Qubits) != g.Kind.Arity() {
		return fmt.Errorf("quantum: gate %s expects %d qubits, got %d", g.Kind, g.Kind.Arity(), len(g.Qubits))
	}
	seen := make(map[int]bool, len(g.Qubits))
	for _, q := range g.Qubits {
		if q < 0 {
			return fmt.Errorf("quantum: gate %s has negative qubit index %d", g.Kind, q)
		}
		if seen[q] {
			return fmt.Errorf("quantum: gate %s touches qubit %d twice", g.Kind, q)
		}
		seen[q] = true
	}
	return nil
}

// String renders the gate as e.g. "CX q0,q3" or "Rz(1/16 π) q2".
func (g Gate) String() string {
	qs := ""
	for i, q := range g.Qubits {
		if i > 0 {
			qs += ","
		}
		qs += fmt.Sprintf("q%d", q)
	}
	switch g.Kind {
	case GateRz, GateCPhase:
		return fmt.Sprintf("%s(%.6gπ) %s", g.Kind, g.Angle, qs)
	default:
		return fmt.Sprintf("%s %s", g.Kind, qs)
	}
}
