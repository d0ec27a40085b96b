package fowler

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBasicGatesAreUnitary(t *testing.T) {
	gates := map[string]Unitary{
		"I": Identity(), "H": HGate(), "T": TGate(), "S": SGate(),
		"X": XGate(), "Z": ZGate(), "Rz(0.3)": Rz(0.3), "Rz(pi/16)": RzPiOver2k(4),
	}
	for name, g := range gates {
		if !IsUnitary(g, 1e-12) {
			t.Errorf("%s is not unitary", name)
		}
	}
}

func TestGateAlgebra(t *testing.T) {
	// H^2 = I, T^2 = S, S^2 = Z, T^8 = I (up to phase), HZH = X.
	if d := Distance(Mul(HGate(), HGate()), Identity()); d > 1e-9 {
		t.Errorf("H^2 != I (distance %v)", d)
	}
	if d := Distance(Mul(TGate(), TGate()), SGate()); d > 1e-9 {
		t.Errorf("T^2 != S (distance %v)", d)
	}
	if d := Distance(Mul(SGate(), SGate()), ZGate()); d > 1e-9 {
		t.Errorf("S^2 != Z (distance %v)", d)
	}
	t8 := Identity()
	for i := 0; i < 8; i++ {
		t8 = Mul(TGate(), t8)
	}
	if d := Distance(t8, Identity()); d > 1e-9 {
		t.Errorf("T^8 != I up to phase (distance %v)", d)
	}
	hzh := Mul(HGate(), Mul(ZGate(), HGate()))
	if d := Distance(hzh, XGate()); d > 1e-9 {
		t.Errorf("HZH != X (distance %v)", d)
	}
}

func TestRzPiOver2kMatchesT(t *testing.T) {
	// π/2^3 = π/8 rotation is exactly the T gate.
	if d := Distance(RzPiOver2k(3), TGate()); d > 1e-12 {
		t.Errorf("Rz(π/8) != T (distance %v)", d)
	}
	// π/2^2 is the S gate, π/2^1 is Z.
	if d := Distance(RzPiOver2k(2), SGate()); d > 1e-12 {
		t.Errorf("Rz(π/4) != S (distance %v)", d)
	}
	if d := Distance(RzPiOver2k(1), ZGate()); d > 1e-12 {
		t.Errorf("Rz(π/2) != Z (distance %v)", d)
	}
}

func TestRzPanicsOnNegativeK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RzPiOver2k(-1)
}

func TestDistanceProperties(t *testing.T) {
	if d := Distance(HGate(), HGate()); d > 1e-12 {
		t.Errorf("distance to self = %v", d)
	}
	// Global phase invariance.
	phased := HGate()
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			phased[i][j] *= complex(0, 1)
		}
	}
	if d := Distance(HGate(), phased); d > 1e-9 {
		t.Errorf("distance should ignore global phase, got %v", d)
	}
	// Distinct gates have positive distance, symmetric.
	d1 := Distance(HGate(), TGate())
	d2 := Distance(TGate(), HGate())
	if d1 < 1e-3 {
		t.Errorf("H and T should be far apart, distance %v", d1)
	}
	if math.Abs(d1-d2) > 1e-12 {
		t.Errorf("distance not symmetric: %v vs %v", d1, d2)
	}
}

// Property: products of unitaries are unitary and distance is bounded by 1.
func TestUnitaryClosureProperty(t *testing.T) {
	gates := []Unitary{HGate(), TGate(), SGate(), XGate(), ZGate()}
	f := func(seq []uint8) bool {
		m := Identity()
		for _, g := range seq {
			m = Mul(gates[int(g)%len(gates)], m)
		}
		if !IsUnitary(m, 1e-9) {
			return false
		}
		d := Distance(m, Identity())
		return d >= 0 && d <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func newTestSearcher() *Searcher {
	s := NewSearcher(10)
	s.MaxStates = 60000
	return s
}

func TestSearcherFindsExactCliffordTargets(t *testing.T) {
	s := newTestSearcher()
	// T itself must be found as the single-gate sequence.
	seq, ok := s.ApproximateRz(3, 1e-9)
	if !ok {
		t.Fatal("searcher failed to find T for Rz(π/8)")
	}
	if seq.Gates != "T" {
		t.Errorf("Rz(π/8) sequence = %q, want \"T\"", seq.Gates)
	}
	// S = TT.
	seq, ok = s.ApproximateRz(2, 1e-9)
	if !ok || seq.Len() != 2 || seq.TCount() != 2 {
		t.Errorf("Rz(π/4) sequence = %+v, want two T gates", seq)
	}
	// X = HTTTTH (H Z H).
	seqX, ok := s.Approximate(XGate(), 1e-9)
	if !ok {
		t.Fatal("searcher failed to find X")
	}
	if d := Distance(seqX.Matrix, XGate()); d > 1e-9 {
		t.Errorf("X sequence has error %v", d)
	}
}

func TestSearcherApproximatesSmallRotation(t *testing.T) {
	s := newTestSearcher()
	// π/16 is not exactly representable with H/T; the searcher must return
	// its best approximation and report whether the tolerance was met.
	seq, ok := s.ApproximateRz(4, 0.5)
	if !ok {
		t.Fatalf("no approximation within 0.5 found (best error %v)", seq.Error)
	}
	if seq.Error > 0.5 {
		t.Errorf("returned sequence error %v exceeds tolerance", seq.Error)
	}
	// Asking for an impossible precision must return ok=false with the best
	// effort sequence.
	best, ok := s.ApproximateRz(10, 1e-12)
	if ok {
		t.Error("1e-12 precision should not be reachable with 10 gates")
	}
	if best.Error <= 0 || best.Error > 1 {
		t.Errorf("best-effort error %v out of range", best.Error)
	}
}

func TestSearcherSequenceMatricesConsistent(t *testing.T) {
	s := newTestSearcher()
	s.Build()
	if len(s.states) < 100 {
		t.Fatalf("searcher enumerated only %d states", len(s.states))
	}
	// Spot check: rebuild each sequence's matrix from its gate string.
	checked := 0
	for _, st := range s.states {
		if st.Len() > 6 {
			continue
		}
		m := Identity()
		for _, c := range st.Gates {
			switch c {
			case 'H':
				m = Mul(HGate(), m)
			case 'T':
				m = Mul(TGate(), m)
			}
		}
		if d := Distance(m, st.Matrix); d > 1e-9 {
			t.Fatalf("sequence %q matrix mismatch (distance %v)", st.Gates, d)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no sequences checked")
	}
}

func TestDefaultLengthModel(t *testing.T) {
	m := DefaultLengthModel()
	l4 := m.Length(1e-4)
	if l4 < 20 || l4 > 80 {
		t.Errorf("default model length for 1e-4 = %d, expected a few dozen gates", l4)
	}
	if m.Length(1e-2) >= l4 {
		t.Error("default model should be monotone in precision")
	}
}

func TestLengthModelPanicsOnBadEps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for eps <= 0")
		}
	}()
	DefaultLengthModel().Length(0)
}

func TestCascade(t *testing.T) {
	if _, err := Cascade(2); err == nil {
		t.Error("cascade for k < 3 should fail")
	}
	c, err := Cascade(3)
	if err != nil {
		t.Fatal(err)
	}
	if c.AncillaFactories != 1 || c.WorstCaseCX != 1 || c.ExpectedCX != 1 {
		t.Errorf("k=3 cascade = %+v", c)
	}
	c5, err := Cascade(5)
	if err != nil {
		t.Fatal(err)
	}
	if c5.AncillaFactories != 3 || c5.WorstCaseCX != 3 || c5.WorstCaseX != 2 {
		t.Errorf("k=5 cascade = %+v", c5)
	}
	// Expected CX = 1 + 1/2 + 1/4 = 1.75 for k=5.
	if math.Abs(c5.ExpectedCX-1.75) > 1e-12 {
		t.Errorf("k=5 expected CX = %v, want 1.75", c5.ExpectedCX)
	}
	if math.Abs(c5.ExpectedX-0.75) > 1e-12 {
		t.Errorf("k=5 expected X = %v, want 0.75", c5.ExpectedX)
	}
	// The expected critical path approaches 2 CX gates as k grows (Section 4.4.2).
	c20, err := Cascade(20)
	if err != nil {
		t.Fatal(err)
	}
	if c20.ExpectedCX < 1.99 || c20.ExpectedCX > 2.0 {
		t.Errorf("k=20 expected CX = %v, want approaching 2", c20.ExpectedCX)
	}
}

func TestSequenceTCount(t *testing.T) {
	s := Sequence{Gates: "HTHTTH"}
	if s.TCount() != 3 {
		t.Errorf("TCount = %d, want 3", s.TCount())
	}
	if s.Len() != 6 {
		t.Errorf("Len = %d, want 6", s.Len())
	}
}

func TestNewSearcherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive maxGates")
		}
	}()
	NewSearcher(0)
}

// Edge cases: searches whose enumerated state space offers no candidate
// within the requested precision, and degenerate searcher bounds.
func TestSearcherWithNoCandidateWithinEps(t *testing.T) {
	// MaxStates=1 stops enumeration at the identity: the only candidate.
	s := NewSearcher(3)
	s.MaxStates = 1
	seq, within := s.ApproximateRz(4, 1e-6)
	if within {
		t.Error("the identity alone cannot approximate Rz(pi/16) to 1e-6")
	}
	if seq.Len() != 0 {
		t.Errorf("closest candidate should be the empty sequence, got %q", seq.Gates)
	}
	if seq.Error <= 0 {
		t.Errorf("the fallback candidate must report its achieved error, got %v", seq.Error)
	}
	if len(s.states) != 1 {
		t.Errorf("state count = %d, want 1", len(s.states))
	}
}

func TestSearcherUnreachablePrecisionReturnsClosest(t *testing.T) {
	// A tiny gate budget cannot reach 1e-9 for a generic rotation; the
	// search must fall back to its best candidate rather than fail.
	s := NewSearcher(2)
	seq, within := s.ApproximateRz(5, 1e-9)
	if within {
		t.Error("a 2-gate budget should not reach 1e-9 precision")
	}
	if seq.Error <= 0 || seq.Error > 2 {
		t.Errorf("achieved error %v outside the unitary distance range", seq.Error)
	}
	// The reported matrix must be consistent with the reported gate string.
	m := Identity()
	for _, g := range seq.Gates {
		switch g {
		case 'H':
			m = Mul(HGate(), m)
		case 'T':
			m = Mul(TGate(), m)
		}
	}
	if d := Distance(m, seq.Matrix); d > 1e-12 {
		t.Errorf("sequence matrix inconsistent with gate string: distance %v", d)
	}
}

func TestEmptySequenceCounts(t *testing.T) {
	var seq Sequence
	if seq.Len() != 0 || seq.TCount() != 0 {
		t.Errorf("empty sequence counts = %d/%d, want 0/0", seq.Len(), seq.TCount())
	}
}
