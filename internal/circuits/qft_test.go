package circuits

import (
	"testing"

	"speedofdata/internal/fowler"
	"speedofdata/internal/quantum"
)

func TestQFTStructureSmall(t *testing.T) {
	// A 3-qubit QFT with no truncation needs 3 Hadamards and 3 controlled
	// rotations (k = 2, 3, 2).
	cfg := QFTConfig{Bits: 3, MaxK: 10, SynthesisEps: 1e-3, LengthModel: fowler.DefaultLengthModel()}
	c, stats, err := GenerateQFTWithStats(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ControlledRotations != 3 || stats.TruncatedRotations != 0 {
		t.Errorf("3-qubit QFT rotations = %+v, want 3 kept, 0 truncated", stats)
	}
	s := c.ComputeStats()
	// Controlled-S decomposes into 3 exact T-level rotations; controlled-T
	// (k=3) needs k+1=4 synthesis.  No controlled rotation here is Clifford
	// only, so there must be T gates and CX gates.
	if s.CountByKind[quantum.GateCX] != 6 {
		t.Errorf("3-qubit QFT CX count = %d, want 6 (two per controlled rotation)", s.CountByKind[quantum.GateCX])
	}
	if s.CountByKind[quantum.GateH] < 3 {
		t.Errorf("3-qubit QFT has %d H gates, want at least the 3 top-level Hadamards", s.CountByKind[quantum.GateH])
	}
}

func TestQFTTruncation(t *testing.T) {
	full, statsFull, err := GenerateQFTWithStats(QFTConfig{Bits: 16, MaxK: 17, SynthesisEps: 1e-3, LengthModel: fowler.DefaultLengthModel()})
	if err != nil {
		t.Fatal(err)
	}
	trunc, statsTrunc, err := GenerateQFTWithStats(QFTConfig{Bits: 16, MaxK: 5, SynthesisEps: 1e-3, LengthModel: fowler.DefaultLengthModel()})
	if err != nil {
		t.Fatal(err)
	}
	if statsFull.TruncatedRotations != 0 {
		t.Errorf("untruncated QFT reports %d truncated rotations", statsFull.TruncatedRotations)
	}
	if statsTrunc.TruncatedRotations == 0 {
		t.Error("truncated QFT reports no truncated rotations")
	}
	if statsFull.ControlledRotations != 16*15/2 {
		t.Errorf("full QFT controlled rotations = %d, want %d", statsFull.ControlledRotations, 16*15/2)
	}
	if statsTrunc.ControlledRotations+statsTrunc.TruncatedRotations != statsFull.ControlledRotations {
		t.Error("kept + truncated should equal the total pair count")
	}
	if trunc.Len() >= full.Len() {
		t.Error("truncation should reduce the gate count")
	}
}

func TestQFT32MatchesPaperShape(t *testing.T) {
	// The paper's 32-bit QFT is its largest benchmark: several thousand
	// gates, the largest π/8-gate fraction of the three kernels, and a long
	// critical path.
	c, err := Generate(QFT, 32)
	if err != nil {
		t.Fatal(err)
	}
	s := c.ComputeStats()
	if s.NumQubits != 32 {
		t.Errorf("32-bit QFT qubits = %d, want 32 (in-place transform)", s.NumQubits)
	}
	if s.TotalGates < 3000 || s.TotalGates > 60000 {
		t.Errorf("32-bit QFT gate count = %d, expected several thousand", s.TotalGates)
	}
	qrca, err := Generate(QRCA, 32)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalGates <= qrca.ComputeStats().TotalGates {
		t.Error("the 32-bit QFT should contain more gates than the 32-bit QRCA")
	}
}

func TestQFTDeterministic(t *testing.T) {
	a, err := Generate(QFT, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(QFT, 12)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("QFT generation not deterministic: %d vs %d gates", a.Len(), b.Len())
	}
	for i := range a.Gates {
		if a.Gates[i].Kind != b.Gates[i].Kind {
			t.Fatalf("gate %d differs between runs", i)
		}
	}
}

func TestRepresentativeSequence(t *testing.T) {
	s := representativeSequence(5)
	if len(s) != 5 {
		t.Fatalf("length = %d", len(s))
	}
	for i := 0; i < len(s); i++ {
		if s[i] != 'H' && s[i] != 'T' {
			t.Fatalf("unexpected character %q", s[i])
		}
	}
}

func TestAppendSequenceDagger(t *testing.T) {
	c := quantum.NewCircuit("seq", 1)
	appendSequence(c, 0, "HT", false)
	appendSequence(c, 0, "HT", true)
	// Forward: H then T. Dagger: Tdg then H (reversed order, T inverted).
	kinds := []quantum.GateKind{quantum.GateH, quantum.GateT, quantum.GateTdg, quantum.GateH}
	if c.Len() != len(kinds) {
		t.Fatalf("sequence length = %d, want %d", c.Len(), len(kinds))
	}
	for i, k := range kinds {
		if c.Gates[i].Kind != k {
			t.Errorf("gate %d = %s, want %s", i, c.Gates[i].Kind, k)
		}
	}
}
