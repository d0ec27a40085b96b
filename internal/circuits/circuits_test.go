package circuits

import (
	"math/rand"
	"testing"
	"testing/quick"

	"speedofdata/internal/quantum"
)

// runAdder loads a and b into an adder circuit built without Toffoli
// decomposition, runs the classical reversible simulator, and returns the
// computed sum register value and carry-out.
func runQRCA(t *testing.T, bits int, a, b uint64) (sum uint64, carryOut bool, carriesClean bool) {
	t.Helper()
	c, layout, err := GenerateQRCAWithLayout(QRCAConfig{Bits: bits, DecomposeToffoli: false})
	if err != nil {
		t.Fatal(err)
	}
	st := NewReversibleState(c.NumQubits)
	st.SetUint(layout.A, a)
	st.SetUint(layout.B, b)
	if err := ApplyReversible(c, st); err != nil {
		t.Fatal(err)
	}
	carriesClean = true
	for i := 0; i < bits; i++ {
		if st.Get(layout.Carry[i]) {
			carriesClean = false
		}
	}
	if got := st.Uint(layout.A); got != a {
		t.Fatalf("QRCA modified operand A: %d -> %d", a, got)
	}
	return st.Uint(layout.B), st.Get(layout.Carry[bits]), carriesClean
}

func runQCLA(t *testing.T, bits int, a, b uint64) (sum uint64, carryOut bool) {
	t.Helper()
	c, layout, err := GenerateQCLAWithLayout(QCLAConfig{Bits: bits, DecomposeToffoli: false})
	if err != nil {
		t.Fatal(err)
	}
	st := NewReversibleState(c.NumQubits)
	st.SetUint(layout.A, a)
	st.SetUint(layout.B, b)
	if err := ApplyReversible(c, st); err != nil {
		t.Fatal(err)
	}
	if got := st.Uint(layout.A); got != a {
		t.Fatalf("QCLA modified operand A: %d -> %d", a, got)
	}
	return st.Uint(layout.B), st.Get(layout.Carry[bits-1])
}

func TestQRCAAddsCorrectly(t *testing.T) {
	cases := []struct {
		bits int
		a, b uint64
	}{
		{1, 0, 0}, {1, 1, 1}, {2, 3, 1}, {4, 9, 7}, {4, 15, 15},
		{8, 200, 100}, {8, 255, 1}, {16, 65535, 12345}, {32, 4000000000, 300000001},
	}
	for _, tc := range cases {
		sum, carry, clean := runQRCA(t, tc.bits, tc.a, tc.b)
		mod := uint64(1) << uint(tc.bits)
		wantSum := (tc.a + tc.b) % mod
		wantCarry := (tc.a + tc.b) >= mod
		if sum != wantSum || carry != wantCarry {
			t.Errorf("%d-bit QRCA %d+%d = %d carry %v, want %d carry %v",
				tc.bits, tc.a, tc.b, sum, carry, wantSum, wantCarry)
		}
		if !clean {
			t.Errorf("%d-bit QRCA left intermediate carries dirty", tc.bits)
		}
	}
}

func TestQCLAAddsCorrectly(t *testing.T) {
	cases := []struct {
		bits int
		a, b uint64
	}{
		{1, 1, 1}, {2, 3, 2}, {4, 9, 7}, {4, 15, 15}, {8, 171, 85},
		{8, 255, 255}, {16, 40000, 30000}, {32, 4000000000, 300000001}, {32, 1, 4294967295},
	}
	for _, tc := range cases {
		sum, carry := runQCLA(t, tc.bits, tc.a, tc.b)
		mod := uint64(1) << uint(tc.bits)
		wantSum := (tc.a + tc.b) % mod
		wantCarry := (tc.a + tc.b) >= mod
		if sum != wantSum || carry != wantCarry {
			t.Errorf("%d-bit QCLA %d+%d = %d carry %v, want %d carry %v",
				tc.bits, tc.a, tc.b, sum, carry, wantSum, wantCarry)
		}
	}
}

// Property: both adders agree with native addition on random operands.
func TestAddersAgreeWithNativeAdditionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bits := []int{3, 5, 8, 13}[r.Intn(4)]
		mod := uint64(1) << uint(bits)
		a := r.Uint64() % mod
		b := r.Uint64() % mod
		sumR, carryR, _ := runQRCA(t, bits, a, b)
		sumC, carryC := runQCLA(t, bits, a, b)
		want := (a + b) % mod
		wantCarry := (a + b) >= mod
		return sumR == want && sumC == want && carryR == wantCarry && carryC == wantCarry
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQRCAQubitCountMatchesPaper(t *testing.T) {
	// Section 3: an n-bit QRCA uses two n-bit data inputs plus n+1 ancillae.
	// Table 9: 32-bit QRCA data area 679 macroblocks = 7 x 97 qubits.
	c, _, err := GenerateQRCAWithLayout(QRCAConfig{Bits: 32, DecomposeToffoli: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 97 {
		t.Errorf("32-bit QRCA uses %d qubits, want 97 (2n + n+1)", c.NumQubits)
	}
}

func TestQCLAQubitCountPlausible(t *testing.T) {
	// Table 9: 32-bit QCLA data area 861 macroblocks = 123 qubits.  Our
	// Brent–Kung variant uses 2n operands + n carries + (n-1) prefix
	// ancillas = 127 qubits; within a few qubits of the paper's netlist.
	c, layout, err := GenerateQCLAWithLayout(QCLAConfig{Bits: 32, DecomposeToffoli: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits < 110 || c.NumQubits > 140 {
		t.Errorf("32-bit QCLA uses %d qubits, expected around 123-127", c.NumQubits)
	}
	if len(layout.PrefixAncillas) != 31 {
		t.Errorf("32-bit QCLA prefix ancillas = %d, want 31", len(layout.PrefixAncillas))
	}
}

func TestQCLAIsShallowerThanQRCA(t *testing.T) {
	// The whole point of the carry-lookahead adder: a much shorter critical
	// path for a similar gate count (Table 2: 15.7 ms vs 125 ms at the speed
	// of data).
	qrca, err := Generate(QRCA, 32)
	if err != nil {
		t.Fatal(err)
	}
	qcla, err := Generate(QCLA, 32)
	if err != nil {
		t.Fatal(err)
	}
	dr := qrca.ComputeStats().Depth
	dc := qcla.ComputeStats().Depth
	if dc*3 > dr {
		t.Errorf("QCLA depth %d should be at least 3x shallower than QRCA depth %d", dc, dr)
	}
	gr := qrca.Len()
	gc := qcla.Len()
	if gc > 2*gr || gr > 2*gc {
		t.Errorf("QRCA (%d gates) and QCLA (%d gates) should have comparable gate counts", gr, gc)
	}
}

func TestToffoliDecompositionCounts(t *testing.T) {
	c := quantum.NewCircuit("toffoli", 3)
	appendToffoli(c, 0, 1, 2, true)
	s := c.ComputeStats()
	// The standard Clifford+T expansion: 7 T/Tdg, 6 CX and 2 H per Toffoli.
	if got := s.CountByKind[quantum.GateT] + s.CountByKind[quantum.GateTdg]; got != 7 {
		t.Errorf("Toffoli T count = %d, want 7", got)
	}
	if got := s.CountByKind[quantum.GateCX]; got != 6 {
		t.Errorf("Toffoli CX count = %d, want 6", got)
	}
	if got := s.CountByKind[quantum.GateH]; got != 2 {
		t.Errorf("Toffoli H count = %d, want 2", got)
	}
}

func TestDecomposedAddersAreCliffordT(t *testing.T) {
	for _, b := range []Benchmark{QRCA, QCLA} {
		c, err := Generate(b, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range c.Gates {
			switch g.Kind {
			case quantum.GateToffoli:
				t.Fatalf("%s gate %d is an undecomposed Toffoli", b, i)
			case quantum.GateCPhase, quantum.GateRz:
				t.Fatalf("%s gate %d is an unsynthesised rotation", b, i)
			}
		}
	}
}

func TestNonTransversalFractionNearPaper(t *testing.T) {
	// Section 3.3: non-transversal one-qubit gates account for 40.5%, 41.0%
	// and 46.9% of the QRCA, QCLA and QFT respectively.  Our netlists differ
	// in detail, so accept a generous band around those values.
	for _, tc := range []struct {
		b        Benchmark
		lo, hi   float64
		paperPct float64
	}{
		{QRCA, 0.25, 0.60, 40.5},
		{QCLA, 0.25, 0.60, 41.0},
		{QFT, 0.25, 0.65, 46.9},
	} {
		c, err := Generate(tc.b, 32)
		if err != nil {
			t.Fatal(err)
		}
		s := c.ComputeStats()
		frac := float64(s.Pi8Gates) / float64(s.TotalGates)
		if frac < tc.lo || frac > tc.hi {
			t.Errorf("%s π/8-gate fraction = %.1f%%, expected %.0f%%-%.0f%% (paper: %.1f%%)",
				tc.b, 100*frac, 100*tc.lo, 100*tc.hi, tc.paperPct)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := GenerateQRCA(QRCAConfig{Bits: 0}); err == nil {
		t.Error("zero-width QRCA should fail")
	}
	if _, err := GenerateQCLA(QCLAConfig{Bits: -1}); err == nil {
		t.Error("negative-width QCLA should fail")
	}
	if _, err := GenerateQFT(QFTConfig{Bits: 0, MaxK: 8, SynthesisEps: 1e-3}); err == nil {
		t.Error("zero-width QFT should fail")
	}
	if _, err := GenerateQFT(QFTConfig{Bits: 4, MaxK: 1, SynthesisEps: 1e-3}); err == nil {
		t.Error("QFT MaxK < 2 should fail")
	}
	if _, err := GenerateQFT(QFTConfig{Bits: 4, MaxK: 8, SynthesisEps: 0}); err == nil {
		t.Error("QFT with zero synthesis precision should fail")
	}
	if _, err := Generate(Benchmark(99), 8); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestBenchmarkNames(t *testing.T) {
	if QRCA.String() != "QRCA" || QCLA.String() != "QCLA" || QFT.String() != "QFT" {
		t.Error("benchmark names wrong")
	}
	if len(Benchmarks()) != 3 {
		t.Error("expected three benchmarks")
	}
}

func TestReversibleSimulatorRejectsQuantumGates(t *testing.T) {
	c := quantum.NewCircuit("h", 1)
	c.Add(quantum.GateH, 0)
	if err := ApplyReversible(c, NewReversibleState(1)); err == nil {
		t.Error("Hadamard should be rejected by the reversible simulator")
	}
	small := NewReversibleState(1)
	big := quantum.NewCircuit("big", 3)
	big.Add(quantum.GateX, 2)
	if err := ApplyReversible(big, small); err == nil {
		t.Error("undersized state should be rejected")
	}
}

func TestReversibleStateHelpers(t *testing.T) {
	s := NewReversibleState(8)
	s.SetUint([]int{0, 1, 2, 3}, 0b1011)
	if !s.Get(0) || !s.Get(1) || s.Get(2) || !s.Get(3) {
		t.Error("SetUint wrong")
	}
	if s.Uint([]int{0, 1, 2, 3}) != 0b1011 {
		t.Error("Uint wrong")
	}
	s.Set(7, true)
	if !s.Get(7) {
		t.Error("Set/Get wrong")
	}
}
