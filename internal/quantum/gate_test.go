package quantum

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestGateArity(t *testing.T) {
	oneQubit := []GateKind{GateI, GateX, GateY, GateZ, GateH, GateS, GateSdg,
		GateT, GateTdg, GateRz, GateMeasure, GateMeasureX, GatePrepZero, GatePrepPlus}
	for _, k := range oneQubit {
		if k.Arity() != 1 {
			t.Errorf("%s arity = %d, want 1", k, k.Arity())
		}
	}
	twoQubit := []GateKind{GateCX, GateCZ, GateCS, GateCPhase}
	for _, k := range twoQubit {
		if k.Arity() != 2 {
			t.Errorf("%s arity = %d, want 2", k, k.Arity())
		}
	}
	if GateToffoli.Arity() != 3 {
		t.Errorf("Toffoli arity = %d, want 3", GateToffoli.Arity())
	}
}

func TestTransversalClassification(t *testing.T) {
	// The paper: CX, X, Y, Z, Phase (S), Hadamard are transversal on
	// [[7,1,3]]; the π/8 gate is not (Sections 2.1, 2.4).
	transversal := []GateKind{GateX, GateY, GateZ, GateH, GateS, GateCX, GateCZ}
	for _, k := range transversal {
		if !k.TransversalOnSteane() {
			t.Errorf("%s should be transversal on the Steane code", k)
		}
	}
	nonTransversal := []GateKind{GateT, GateTdg, GateRz, GateCPhase, GateToffoli, GateCS}
	for _, k := range nonTransversal {
		if k.TransversalOnSteane() {
			t.Errorf("%s should be non-transversal on the Steane code", k)
		}
	}
}

func TestRequiresPi8Ancilla(t *testing.T) {
	if !GateT.RequiresPi8Ancilla() || !GateTdg.RequiresPi8Ancilla() {
		t.Error("T and Tdg must consume a π/8 ancilla")
	}
	for _, k := range []GateKind{GateH, GateCX, GateRz, GateMeasure} {
		if k.RequiresPi8Ancilla() {
			t.Errorf("%s should not consume a π/8 ancilla", k)
		}
	}
}

func TestMeasurementPreparationPredicates(t *testing.T) {
	if !GateMeasure.IsMeasurement() || !GateMeasureX.IsMeasurement() {
		t.Error("measurement predicates wrong")
	}
	if GateH.IsMeasurement() {
		t.Error("H is not a measurement")
	}
	if !GatePrepZero.IsPreparation() || !GatePrepPlus.IsPreparation() {
		t.Error("preparation predicates wrong")
	}
	if GateMeasure.IsPreparation() {
		t.Error("measurement is not a preparation")
	}
}

func TestGateKindString(t *testing.T) {
	if GateCX.String() != "CX" || GateT.String() != "T" || GatePrepZero.String() != "Prep0" {
		t.Error("gate names wrong")
	}
	if !strings.HasPrefix(GateKind(250).String(), "gate(") {
		t.Error("unknown gate kind string")
	}
}

func TestGateValidate(t *testing.T) {
	if err := (Gate{Kind: GateCX, Qubits: []int{0, 1}}).Validate(); err != nil {
		t.Errorf("valid CX rejected: %v", err)
	}
	bad := Gate{Kind: GateCX, Qubits: []int{0}}
	if err := bad.Validate(); err == nil {
		t.Error("CX with one qubit should be invalid")
	}
	dup := Gate{Kind: GateCX, Qubits: []int{2, 2}}
	if err := dup.Validate(); err == nil {
		t.Error("CX with duplicate qubits should be invalid")
	}
	neg := Gate{Kind: GateH, Qubits: []int{-1}}
	if err := neg.Validate(); err == nil {
		t.Error("negative qubit index should be invalid")
	}
	// The defined kinds are exactly [0, NumGateKinds), and both the gate
	// and a circuit holding it say so.
	for _, k := range []GateKind{-1, 0, NumGateKinds - 1, NumGateKinds, 99} {
		g := Gate{Kind: k, Qubits: []int{0}}
		c := &Circuit{Name: "kind", NumQubits: 1, Gates: []Gate{g}}
		defined := k >= 0 && k < NumGateKinds
		if err := g.Validate(); (err == nil) != defined {
			t.Errorf("Gate.Validate on kind %d = %v, want an error: %v", int(k), err, !defined)
		}
		if err := c.Validate(); (err == nil) != defined {
			t.Errorf("Circuit.Validate on kind %d = %v, want an error: %v", int(k), err, !defined)
		}
	}
}

// A gate with the wrong number of qubits is rejected where circuits are
// built.
func TestNewGatePanicsOnBadArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("adding a CX with one qubit should panic")
		}
	}()
	NewCircuit("bad", 2).Add(GateCX, 0)
}

// The gate kinds run from GateI to GatePrepPlus, each with a name: the
// random-circuit fuzzers draw from exactly that range.
func TestGateKindsComplete(t *testing.T) {
	if len(gateNames) != int(GatePrepPlus)+1 {
		t.Fatalf("%d gate names, want one per kind GateI..GatePrepPlus (%d)", len(gateNames), int(GatePrepPlus)+1)
	}
	for k := GateI; k <= GatePrepPlus; k++ {
		if gateNames[k] == "" {
			t.Errorf("gate kind %d has no name", int(k))
		}
	}
}

func TestGateString(t *testing.T) {
	g := Gate{Kind: GateCX, Qubits: []int{0, 3}}
	if got := g.String(); got != "CX q0,q3" {
		t.Errorf("String() = %q", got)
	}
	rz := Gate{Kind: GateRz, Qubits: []int{2}, Angle: 1.0 / 16}
	if got := rz.String(); !strings.Contains(got, "Rz(") || !strings.Contains(got, "q2") {
		t.Errorf("Rz String() = %q", got)
	}
}

// Property: every π/8-ancilla-consuming gate is non-transversal on the
// Steane code.
func TestClassificationConsistencyProperty(t *testing.T) {
	f := func(raw uint8) bool {
		k := GateKind(int(raw) % len(gateNames))
		return !k.RequiresPi8Ancilla() || !k.TransversalOnSteane()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
