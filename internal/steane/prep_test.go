package steane

import "testing"

func TestBasicZeroProtocolStructure(t *testing.T) {
	p := BasicZeroProtocol(NewCode())
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c := p.CountOps()
	// Figure 3b: 7 physical |0> preps, 3 Hadamards, 9 CX gates, no
	// measurements or classical steps.
	if c.Preps != 7 || c.OneQubitGates != 3 || c.TwoQubitGates != 9 {
		t.Errorf("basic prep counts = %+v, want 7 preps, 3 H, 9 CX", c)
	}
	if c.Measurements != 0 || c.Verifications != 0 || c.Corrections != 0 {
		t.Errorf("basic prep should have no measurements or classical steps: %+v", c)
	}
	if p.NumQubits != 7 {
		t.Errorf("basic prep uses %d qubits, want 7", p.NumQubits)
	}
}

func TestVerifyOnlyProtocolStructure(t *testing.T) {
	p := VerifyOnlyProtocol(NewCode())
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c := p.CountOps()
	// Basic prep (7 prep, 3 H, 9 CX) + cat prep (3 prep, 1 H, 2 CX)
	// + verification (3 CX, 3 measurements, 1 verify).
	if c.Preps != 10 {
		t.Errorf("preps = %d, want 10", c.Preps)
	}
	if c.OneQubitGates != 4 {
		t.Errorf("one-qubit gates = %d, want 4", c.OneQubitGates)
	}
	if c.TwoQubitGates != 14 {
		t.Errorf("two-qubit gates = %d, want 14", c.TwoQubitGates)
	}
	if c.Measurements != 3 || c.Verifications != 1 {
		t.Errorf("measurements/verifications = %d/%d, want 3/1", c.Measurements, c.Verifications)
	}
	// The paper notes the verify-only layout uses 10 qubit slots (7 + 3).
	if p.NumQubits != 10 {
		t.Errorf("verify-only uses %d qubits, want 10", p.NumQubits)
	}
}

func TestCorrectOnlyProtocolStructure(t *testing.T) {
	p := CorrectOnlyProtocol(NewCode())
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c := p.CountOps()
	if c.Preps != 21 {
		t.Errorf("preps = %d, want 21 (three encoded blocks)", c.Preps)
	}
	// 3 basic preps (9 H) + phase-correct transversal H (7).
	if c.OneQubitGates != 16 {
		t.Errorf("one-qubit gates = %d, want 16", c.OneQubitGates)
	}
	// 3*9 encoding CX + 7 bit-correct CX + 7 phase-correct CX.
	if c.TwoQubitGates != 41 {
		t.Errorf("two-qubit gates = %d, want 41", c.TwoQubitGates)
	}
	if c.Measurements != 14 || c.Corrections != 2 {
		t.Errorf("measurements/corrections = %d/%d, want 14/2", c.Measurements, c.Corrections)
	}
}

func TestVerifyAndCorrectProtocolStructure(t *testing.T) {
	p := VerifyAndCorrectProtocol(NewCode())
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c := p.CountOps()
	// Three verified blocks: 3*(10 preps, 4 H, 14 CX, 3 meas, 1 verify)
	// plus bit correct (7 CX, 7 meas, 1 correct) and phase correct
	// (7 H, 7 CX, 7 meas, 1 correct).
	if c.Preps != 30 {
		t.Errorf("preps = %d, want 30", c.Preps)
	}
	if c.OneQubitGates != 3*4+7 {
		t.Errorf("one-qubit gates = %d, want 19", c.OneQubitGates)
	}
	if c.TwoQubitGates != 3*14+14 {
		t.Errorf("two-qubit gates = %d, want 56", c.TwoQubitGates)
	}
	if c.Measurements != 3*3+14 {
		t.Errorf("measurements = %d, want 23", c.Measurements)
	}
	if c.Verifications != 3 || c.Corrections != 2 {
		t.Errorf("verifications/corrections = %d/%d, want 3/2", c.Verifications, c.Corrections)
	}
	// The output block is block 0 of the three.
	if p.OutputBlock[0] != 0 || p.OutputBlock[6] != 6 {
		t.Errorf("output block = %v, want qubits 0..6", p.OutputBlock)
	}
}

func TestStandardProtocolsComplete(t *testing.T) {
	ps := StandardProtocols(NewCode())
	for _, name := range []string{"basic", "verify-only", "correct-only", "verify-and-correct"} {
		p, ok := ps[name]
		if !ok {
			t.Errorf("missing protocol %q", name)
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("protocol %q invalid: %v", name, err)
		}
	}
}

func TestProtocolValidateCatchesErrors(t *testing.T) {
	p := NewProtocol("bad", 8)
	p.Ops = append(p.Ops, ProtocolOp{Kind: OpCX, Qubits: []int{0, 99}})
	if err := p.Validate(); err == nil {
		t.Error("out-of-range qubit should fail validation")
	}

	p2 := NewProtocol("bad2", 8)
	p2.Ops = append(p2.Ops, ProtocolOp{Kind: OpVerify, MeasIDs: []int{0}})
	if err := p2.Validate(); err == nil {
		t.Error("verify before measurement should fail validation")
	}

	p3 := NewProtocol("bad3", 8)
	p3.Ops = append(p3.Ops,
		ProtocolOp{Kind: OpMeasureZ, Qubits: []int{0}, MeasID: 0},
		ProtocolOp{Kind: OpMeasureZ, Qubits: []int{1}, MeasID: 0},
	)
	if err := p3.Validate(); err == nil {
		t.Error("duplicate measurement id should fail validation")
	}

	p4 := NewProtocol("bad4", 8)
	p4.OutputBlock = [N]int{0, 0, 1, 2, 3, 4, 5}
	if err := p4.Validate(); err == nil {
		t.Error("repeated output block qubit should fail validation")
	}
}

func TestProtocolBuilderPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("too few qubits", func() { NewProtocol("tiny", 3) })
	assertPanics("qubit out of range", func() { NewProtocol("p", 8).Op(OpH, 12) })
	assertPanics("measure with non-measurement", func() { NewProtocol("p", 8).Measure(OpH, 0) })
	assertPanics("correct with wrong kind", func() {
		NewProtocol("p", 8).Correct(OpH, make([]int, 7), make([]int, 7))
	})
	assertPanics("correct with wrong sizes", func() {
		NewProtocol("p", 8).Correct(OpCorrectX, []int{0, 1}, []int{0, 1})
	})
}

func TestOpKindPredicates(t *testing.T) {
	if !OpCX.IsTwoQubit() || !OpCZ.IsTwoQubit() {
		t.Error("CX/CZ must be two-qubit")
	}
	if OpH.IsTwoQubit() {
		t.Error("H is not two-qubit")
	}
	if !OpMeasureZ.IsMeasurement() || !OpMeasureX.IsMeasurement() {
		t.Error("measurement predicate wrong")
	}
	for _, k := range []OpKind{OpVerify, OpCorrectX, OpCorrectZ} {
		if k.IsPhysical() {
			t.Errorf("%s should not be a physical op", k)
		}
	}
	for _, k := range []OpKind{OpPrepZero, OpH, OpCX, OpMeasureZ, OpT} {
		if !k.IsPhysical() {
			t.Errorf("%s should be a physical op", k)
		}
	}
	if OpKind(77).String() != "op(77)" {
		t.Error("unknown op kind string")
	}
}

// Every protocol's output block qubits must be within range and the protocol
// must survive validation — checked across all standard protocols.
func TestAllProtocolsOutputBlocksValid(t *testing.T) {
	code := NewCode()
	protocols := []*Protocol{
		BasicZeroProtocol(code),
		VerifyOnlyProtocol(code),
		CorrectOnlyProtocol(code),
		VerifyAndCorrectProtocol(code),
	}
	for _, p := range protocols {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		seen := map[int]bool{}
		for _, q := range p.OutputBlock {
			if q < 0 || q >= p.NumQubits {
				t.Errorf("%s: output qubit %d out of range", p.Name, q)
			}
			if seen[q] {
				t.Errorf("%s: duplicate output qubit %d", p.Name, q)
			}
			seen[q] = true
		}
	}
}
