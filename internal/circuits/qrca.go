package circuits

import (
	"fmt"

	"speedofdata/internal/quantum"
)

// QRCAConfig parameterises the quantum ripple-carry adder generator.
type QRCAConfig struct {
	// Bits is the operand width n (the paper uses 32).
	Bits int
	// DecomposeToffoli expands every Toffoli into the Clifford+T network; set
	// it to false to obtain a purely classical-reversible circuit that the
	// package's reversible simulator can verify.
	DecomposeToffoli bool
}

// QRCALayout describes where the adder's registers live inside the generated
// circuit, so tests and examples can load operands and read results.
type QRCALayout struct {
	// A and B are the two n-bit operands (little endian).  The sum a+b mod
	// 2^n is produced in place of B.
	A, B []int
	// Carry is the n+1 qubit carry register: Carry[0] is the carry-in
	// (restored to zero), Carry[n] receives the carry-out.  These are the
	// paper's "n+1 ancillae" for the ripple-carry adder (Section 3).
	Carry []int
}

// GenerateQRCA builds the n-bit Vedral–Barenco–Ekert style ripple-carry adder
// the paper uses as its most serial benchmark: two n-bit data inputs plus
// n+1 ancillae, with the sum produced in the second operand.
func GenerateQRCA(cfg QRCAConfig) (*quantum.Circuit, error) {
	c, _, err := GenerateQRCAWithLayout(cfg)
	return c, err
}

// GenerateQRCAWithLayout is GenerateQRCA plus the register layout.
func GenerateQRCAWithLayout(cfg QRCAConfig) (*quantum.Circuit, QRCALayout, error) {
	n := cfg.Bits
	if n < 1 {
		return nil, QRCALayout{}, fmt.Errorf("circuits: QRCA width must be >= 1, got %d", n)
	}
	layout := QRCALayout{
		A:     make([]int, n),
		B:     make([]int, n),
		Carry: make([]int, n+1),
	}
	for i := 0; i < n; i++ {
		layout.A[i] = i
		layout.B[i] = n + i
	}
	for i := 0; i <= n; i++ {
		layout.Carry[i] = 2*n + i
	}
	total := 3*n + 1
	c := quantum.NewCircuit(fmt.Sprintf("%d-bit QRCA", n), total)

	carry := func(ci, a, b, co int) {
		appendToffoli(c, a, b, co, cfg.DecomposeToffoli)
		c.Add(quantum.GateCX, a, b)
		appendToffoli(c, ci, b, co, cfg.DecomposeToffoli)
	}
	carryInverse := func(ci, a, b, co int) {
		appendToffoli(c, ci, b, co, cfg.DecomposeToffoli)
		c.Add(quantum.GateCX, a, b)
		appendToffoli(c, a, b, co, cfg.DecomposeToffoli)
	}
	sum := func(ci, a, b int) {
		c.Add(quantum.GateCX, a, b)
		c.Add(quantum.GateCX, ci, b)
	}

	// Forward carry ripple.
	for i := 0; i < n; i++ {
		carry(layout.Carry[i], layout.A[i], layout.B[i], layout.Carry[i+1])
	}
	// Top bit: undo the intermediate CX and produce the top sum.
	c.Add(quantum.GateCX, layout.A[n-1], layout.B[n-1])
	sum(layout.Carry[n-1], layout.A[n-1], layout.B[n-1])
	// Unwind the carries while producing the remaining sum bits.
	for i := n - 2; i >= 0; i-- {
		carryInverse(layout.Carry[i], layout.A[i], layout.B[i], layout.Carry[i+1])
		sum(layout.Carry[i], layout.A[i], layout.B[i])
	}
	return c, layout, nil
}
