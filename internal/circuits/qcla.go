package circuits

import (
	"fmt"

	"speedofdata/internal/quantum"
)

// QCLAConfig parameterises the quantum carry-lookahead adder generator.
type QCLAConfig struct {
	// Bits is the operand width n (the paper uses 32).
	Bits int
	// DecomposeToffoli expands every Toffoli into the Clifford+T network.
	DecomposeToffoli bool
}

// QCLALayout describes the registers of the generated carry-lookahead adder.
type QCLALayout struct {
	// A and B are the operands; the sum is produced in B.
	A, B []int
	// Carry[i] holds, at the end of the circuit, the carry out of position i
	// (so Carry[n-1] is the adder's carry-out).
	Carry []int
	// PrefixAncillas lists the extra ancillas used by the Brent–Kung prefix
	// network for block-propagate values; they are left dirty (see the
	// package documentation and DESIGN.md for the substitution note).
	PrefixAncillas []int
}

// GenerateQCLA builds an n-bit carry-lookahead adder whose carries are
// computed by a logarithmic-depth Brent–Kung parallel-prefix network (the
// same asymptotics as the Draper–Kutin–Rains–Svore adder the paper cites),
// the paper's most parallel benchmark.  The sum is produced in the B
// register.
func GenerateQCLA(cfg QCLAConfig) (*quantum.Circuit, error) {
	c, _, err := GenerateQCLAWithLayout(cfg)
	return c, err
}

// GenerateQCLAWithLayout is GenerateQCLA plus the register layout.
func GenerateQCLAWithLayout(cfg QCLAConfig) (*quantum.Circuit, QCLALayout, error) {
	n := cfg.Bits
	if n < 1 {
		return nil, QCLALayout{}, fmt.Errorf("circuits: QCLA width must be >= 1, got %d", n)
	}
	layout := QCLALayout{
		A:     make([]int, n),
		B:     make([]int, n),
		Carry: make([]int, n),
	}
	for i := 0; i < n; i++ {
		layout.A[i] = i
		layout.B[i] = n + i
		layout.Carry[i] = 2*n + i
	}

	// Plan the Brent–Kung prefix network: an up-sweep that builds
	// power-of-two block (G, P) pairs and a down-sweep that completes every
	// prefix.  Each up-sweep combine needs one fresh ancilla to hold the
	// combined block-propagate value (ANDing in place is not reversible);
	// down-sweep combines only update G.
	type combine struct {
		i, j     int // combine target i with source j = i - d
		pAncilla int // fresh qubit for the combined P, or -1 in the down-sweep
	}
	next := 3 * n
	var combines []combine
	for d := 1; d < n; d *= 2 { // up-sweep
		for i := 2*d - 1; i < n; i += 2 * d {
			cb := combine{i: i, j: i - d, pAncilla: next}
			next++
			combines = append(combines, cb)
		}
	}
	largest := 1
	for largest*2 < n {
		largest *= 2
	}
	for d := largest / 2; d >= 1; d /= 2 { // down-sweep
		for i := 3*d - 1; i < n; i += 2 * d {
			combines = append(combines, combine{i: i, j: i - d, pAncilla: -1})
		}
	}
	for q := 3 * n; q < next; q++ {
		layout.PrefixAncillas = append(layout.PrefixAncillas, q)
	}

	c := quantum.NewCircuit(fmt.Sprintf("%d-bit QCLA", n), next)

	// Step 1: generate bits g[i] = a_i AND b_i into the carry register.
	for i := 0; i < n; i++ {
		appendToffoli(c, layout.A[i], layout.B[i], layout.Carry[i], cfg.DecomposeToffoli)
	}
	// Step 2: propagate bits p[i] = a_i XOR b_i in place of b.
	for i := 0; i < n; i++ {
		c.Add(quantum.GateCX, layout.A[i], layout.B[i])
	}

	// Step 3: prefix network.  curP[i] tracks the qubit currently holding
	// the block-propagate value of the block ending at i; the block-generate
	// values (which become the carries) accumulate in place in the carry
	// register.
	curP := make([]int, n)
	for i := 0; i < n; i++ {
		curP[i] = layout.B[i]
	}
	for _, cb := range combines {
		// G[i] ^= P[i] & G[j]
		appendToffoli(c, curP[cb.i], layout.Carry[cb.j], layout.Carry[cb.i], cfg.DecomposeToffoli)
		if cb.pAncilla >= 0 {
			// P[i] = P[i] & P[j], written to a fresh ancilla.
			appendToffoli(c, curP[cb.i], curP[cb.j], cb.pAncilla, cfg.DecomposeToffoli)
			curP[cb.i] = cb.pAncilla
		}
	}

	// Step 4: sums s[i] = p[i] XOR carry-in(i) = b[i] XOR Carry[i-1].
	for i := 1; i < n; i++ {
		c.Add(quantum.GateCX, layout.Carry[i-1], layout.B[i])
	}
	return c, layout, nil
}
