package steane

import "fmt"

// OpKind enumerates the physical and classical operations a preparation
// protocol is made of.  Physical operations are error locations for the
// Monte Carlo evaluation (Section 2.2); classical operations (verify,
// correct) consume earlier measurement results.
type OpKind int

const (
	// OpPrepZero prepares a physical qubit in |0>.
	OpPrepZero OpKind = iota
	// OpH applies a physical Hadamard.
	OpH
	// OpS applies a physical phase gate.
	OpS
	// OpT applies a physical π/8 gate.
	OpT
	// OpZ applies a physical Pauli Z.
	OpZ
	// OpX applies a physical Pauli X.
	OpX
	// OpCX applies a physical CNOT (Qubits[0] control, Qubits[1] target).
	OpCX
	// OpCZ applies a physical controlled-Z.
	OpCZ
	// OpMeasureZ measures a qubit in the computational basis and records the
	// outcome under the op's MeasID.
	OpMeasureZ
	// OpMeasureX measures a qubit in the X basis and records the outcome
	// under the op's MeasID.
	OpMeasureX
	// OpVerify is a classical accept/reject decision: the protocol run is
	// discarded if the parity of the referenced measurement outcomes is odd.
	OpVerify
	// OpCorrectX applies a classically-controlled X correction to the data
	// qubits listed in Qubits, using the syndrome computed from the
	// referenced measurement outcomes (Steane-style bit correction).
	OpCorrectX
	// OpCorrectZ applies a classically-controlled Z correction to the data
	// qubits listed in Qubits, using the syndrome computed from the
	// referenced measurement outcomes (Steane-style phase correction).
	OpCorrectZ
)

var opKindNames = [...]string{
	OpPrepZero: "prep0",
	OpH:        "H",
	OpS:        "S",
	OpT:        "T",
	OpZ:        "Z",
	OpX:        "X",
	OpCX:       "CX",
	OpCZ:       "CZ",
	OpMeasureZ: "Mz",
	OpMeasureX: "Mx",
	OpVerify:   "verify",
	OpCorrectX: "correctX",
	OpCorrectZ: "correctZ",
}

// String returns a short name for the operation kind.
func (k OpKind) String() string {
	if k < 0 || int(k) >= len(opKindNames) {
		return fmt.Sprintf("op(%d)", int(k))
	}
	return opKindNames[k]
}

// IsPhysical reports whether the operation is a physical gate, preparation or
// measurement (i.e. a potential error location).
func (k OpKind) IsPhysical() bool {
	switch k {
	case OpVerify, OpCorrectX, OpCorrectZ:
		return false
	default:
		return true
	}
}

// IsTwoQubit reports whether the operation acts on two physical qubits.
func (k OpKind) IsTwoQubit() bool { return k == OpCX || k == OpCZ }

// IsMeasurement reports whether the operation is a measurement.
func (k OpKind) IsMeasurement() bool { return k == OpMeasureZ || k == OpMeasureX }

// ProtocolOp is one step of a preparation protocol.
type ProtocolOp struct {
	Kind   OpKind
	Qubits []int
	// MeasID identifies a measurement outcome (unique within the protocol);
	// only meaningful for measurement operations.
	MeasID int
	// MeasIDs references earlier measurement outcomes; only meaningful for
	// verify and correct operations.
	MeasIDs []int
}

// Protocol is a complete ancilla preparation procedure: a sequence of
// physical operations and classical decisions producing one encoded output
// block.
type Protocol struct {
	Name      string
	NumQubits int
	Ops       []ProtocolOp
	// OutputBlock lists the 7 physical qubits holding the encoded output.
	OutputBlock [N]int
	// numMeas counts measurements added so far (used to assign MeasIDs).
	numMeas int
}

// NewProtocol creates an empty protocol over the given number of physical
// qubits.
func NewProtocol(name string, qubits int) *Protocol {
	if qubits < N {
		panic(fmt.Sprintf("steane: protocol %q needs at least %d qubits", name, N))
	}
	return &Protocol{Name: name, NumQubits: qubits}
}

func (p *Protocol) checkQubits(qs ...int) {
	for _, q := range qs {
		if q < 0 || q >= p.NumQubits {
			panic(fmt.Sprintf("steane: protocol %q references qubit %d outside [0,%d)", p.Name, q, p.NumQubits))
		}
	}
}

// Op appends a single- or two-qubit physical operation.
func (p *Protocol) Op(kind OpKind, qubits ...int) *Protocol {
	p.checkQubits(qubits...)
	p.Ops = append(p.Ops, ProtocolOp{Kind: kind, Qubits: qubits})
	return p
}

// Measure appends a measurement and returns its measurement ID.
func (p *Protocol) Measure(kind OpKind, qubit int) int {
	if !kind.IsMeasurement() {
		panic("steane: Measure requires a measurement op kind")
	}
	p.checkQubits(qubit)
	id := p.numMeas
	p.numMeas++
	p.Ops = append(p.Ops, ProtocolOp{Kind: kind, Qubits: []int{qubit}, MeasID: id})
	return id
}

// Verify appends an accept/reject decision on the parity of measurement ids.
func (p *Protocol) Verify(measIDs ...int) *Protocol {
	p.Ops = append(p.Ops, ProtocolOp{Kind: OpVerify, MeasIDs: measIDs})
	return p
}

// Correct appends a classically-controlled correction (OpCorrectX or
// OpCorrectZ) on dataQubits driven by the syndrome of the referenced
// measurement outcomes.  The measurement ids must be in physical-qubit order
// 0..6 of the measured ancilla block.
func (p *Protocol) Correct(kind OpKind, dataQubits []int, measIDs []int) *Protocol {
	if kind != OpCorrectX && kind != OpCorrectZ {
		panic("steane: Correct requires OpCorrectX or OpCorrectZ")
	}
	if len(dataQubits) != N || len(measIDs) != N {
		panic("steane: Correct requires 7 data qubits and 7 measurement ids")
	}
	p.checkQubits(dataQubits...)
	p.Ops = append(p.Ops, ProtocolOp{Kind: kind, Qubits: append([]int(nil), dataQubits...), MeasIDs: append([]int(nil), measIDs...)})
	return p
}

// NumMeasurements returns how many measurement outcomes the protocol records.
func (p *Protocol) NumMeasurements() int { return p.numMeas }

// Counts summarises the physical operation mix of a protocol.
type Counts struct {
	Preps, OneQubitGates, TwoQubitGates, Measurements int
	Verifications, Corrections                        int
}

// Total returns the number of physical operations (error locations excluding
// movement).
func (c Counts) Total() int {
	return c.Preps + c.OneQubitGates + c.TwoQubitGates + c.Measurements
}

// CountOps tallies the protocol's operation mix.
func (p *Protocol) CountOps() Counts {
	var c Counts
	for _, op := range p.Ops {
		switch {
		case op.Kind == OpPrepZero:
			c.Preps++
		case op.Kind.IsMeasurement():
			c.Measurements++
		case op.Kind.IsTwoQubit():
			c.TwoQubitGates++
		case op.Kind == OpVerify:
			c.Verifications++
		case op.Kind == OpCorrectX || op.Kind == OpCorrectZ:
			c.Corrections++
		case op.Kind.IsPhysical():
			c.OneQubitGates++
		}
	}
	return c
}

// Validate checks qubit ranges, measurement id references and output block
// sanity.
func (p *Protocol) Validate() error {
	if p.NumQubits < N {
		return fmt.Errorf("steane: protocol %q has only %d qubits", p.Name, p.NumQubits)
	}
	seenMeas := make(map[int]bool)
	for i, op := range p.Ops {
		for _, q := range op.Qubits {
			if q < 0 || q >= p.NumQubits {
				return fmt.Errorf("steane: protocol %q op %d references qubit %d outside range", p.Name, i, q)
			}
		}
		if op.Kind.IsMeasurement() {
			if seenMeas[op.MeasID] {
				return fmt.Errorf("steane: protocol %q op %d reuses measurement id %d", p.Name, i, op.MeasID)
			}
			seenMeas[op.MeasID] = true
		}
		if op.Kind == OpVerify || op.Kind == OpCorrectX || op.Kind == OpCorrectZ {
			for _, id := range op.MeasIDs {
				if !seenMeas[id] {
					return fmt.Errorf("steane: protocol %q op %d references measurement %d before it happens", p.Name, i, id)
				}
			}
		}
		if op.Kind.IsTwoQubit() && len(op.Qubits) != 2 {
			return fmt.Errorf("steane: protocol %q op %d is two-qubit but has %d qubits", p.Name, i, len(op.Qubits))
		}
	}
	outSeen := make(map[int]bool)
	for _, q := range p.OutputBlock {
		if q < 0 || q >= p.NumQubits {
			return fmt.Errorf("steane: protocol %q output block qubit %d out of range", p.Name, q)
		}
		if outSeen[q] {
			return fmt.Errorf("steane: protocol %q output block repeats qubit %d", p.Name, q)
		}
		outSeen[q] = true
	}
	return nil
}
