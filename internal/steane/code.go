// Package steane implements the [[7,1,3]] CSS (Steane) code used throughout
// the paper (Section 2): its stabilizer structure, syndrome decoding, and the
// physical-level encoded-zero preparation circuits of Figures 3 and 4 — the
// basic encoded-zero prepare, cat-state preparation, verification, bit/phase
// correction and the three high-fidelity variants.
//
// Each circuit is a Protocol: a list of physical operations on individual
// qubits plus the classical verify and correct steps, which the noise
// package compiles and evaluates.
package steane

// N is the number of physical qubits per encoded qubit in the [[7,1,3]] code.
const N = 7

// Distance is the code distance (3): any single physical error is correctable.
const Distance = 3

// Code describes the [[7,1,3]] CSS code.  The X- and Z-type stabilizer
// generators share the same supports (the rows of the [7,4,3] Hamming code's
// parity-check matrix), which is what makes most encoded gates transversal.
type Code struct {
	// StabilizerSupports holds the three generator supports as bitmasks over
	// the 7 physical qubits (bit i set = qubit i is in the support).
	StabilizerSupports [3]uint8
	// LogicalSupport is the support of the logical X and Z operators
	// (all seven qubits).
	LogicalSupport uint8
}

// NewCode returns the [[7,1,3]] code with the conventional generator choice
// whose parity-check columns are the binary numbers 1..7:
//
//	g1 = X/Z on {0,2,4,6}
//	g2 = X/Z on {1,2,5,6}
//	g3 = X/Z on {3,4,5,6}
func NewCode() Code {
	return Code{
		StabilizerSupports: [3]uint8{
			maskOf(0, 2, 4, 6),
			maskOf(1, 2, 5, 6),
			maskOf(3, 4, 5, 6),
		},
		LogicalSupport: maskOf(0, 1, 2, 3, 4, 5, 6),
	}
}

func maskOf(qubits ...int) uint8 {
	var m uint8
	for _, q := range qubits {
		m |= 1 << uint(q)
	}
	return m
}

// Weight returns the number of qubits in a Pauli-pattern bitmask.
func Weight(mask uint8) int {
	w := 0
	for q := 0; q < N; q++ {
		if mask&(1<<uint(q)) != 0 {
			w++
		}
	}
	return w
}

// Syndrome computes the 3-bit syndrome of an error pattern with respect to
// the code's stabilizer generators: bit i of the result is the parity of the
// overlap between the error and generator i.  For an X-error pattern this is
// the syndrome measured by the Z-type stabilizers and vice versa (the
// supports coincide for the Steane code).
func (c Code) Syndrome(errMask uint8) uint8 {
	var s uint8
	for i, g := range c.StabilizerSupports {
		if parity(errMask&g) == 1 {
			s |= 1 << uint(i)
		}
	}
	return s
}

func parity(m uint8) int {
	p := 0
	for m != 0 {
		p ^= int(m & 1)
		m >>= 1
	}
	return p
}

// CorrectionFor returns the single-qubit correction implied by a syndrome,
// as a bitmask (zero for the trivial syndrome).  Because the parity-check
// columns are the numbers 1..7, the syndrome value directly identifies the
// qubit to flip.
func (c Code) CorrectionFor(syndrome uint8) uint8 {
	if syndrome == 0 {
		return 0
	}
	// Find the qubit whose parity-check column equals the syndrome.
	for q := 0; q < N; q++ {
		if c.Syndrome(1<<uint(q)) == syndrome {
			return 1 << uint(q)
		}
	}
	// All 7 non-zero syndromes are covered by the search above.
	return 0
}

// IsStabilizer reports whether an error pattern with trivial syndrome lies in
// the stabilizer group (harmless) as opposed to being a logical operator.
// For the Steane code, trivial-syndrome patterns are Hamming codewords, and
// the stabilizer elements are exactly the even-weight ones.
func (c Code) IsStabilizer(errMask uint8) bool {
	if c.Syndrome(errMask) != 0 {
		return false
	}
	return Weight(errMask)%2 == 0
}

// DecodeResult classifies a residual error after ideal syndrome decoding.
type DecodeResult int

const (
	// NoError means the pattern was trivial or exactly a stabilizer element.
	NoError DecodeResult = iota
	// Corrected means a non-trivial syndrome was repaired successfully.
	Corrected
	// LogicalError means the residual after correction is a logical operator:
	// the error is uncorrectable.
	LogicalError
)

// Decode performs ideal maximum-likelihood-style decoding of a single-type
// (X or Z) error pattern: compute the syndrome, apply the implied
// single-qubit correction, and classify the residual.
func (c Code) Decode(errMask uint8) DecodeResult {
	syndrome := c.Syndrome(errMask)
	residual := errMask ^ c.CorrectionFor(syndrome)
	switch {
	case residual == 0:
		if syndrome == 0 {
			return NoError
		}
		return Corrected
	case c.IsStabilizer(residual):
		if syndrome == 0 {
			return NoError
		}
		return Corrected
	default:
		return LogicalError
	}
}

// IsUncorrectableZeroAncilla reports whether an error frame on an encoded
// |0> ancilla is uncorrectable.  |0>_L is a +1 eigenstate of logical Z and of
// every stabilizer, so Z-type patterns with trivial syndrome act as the
// identity on it; the only fatal outcome is a logical X (a flipped encoded
// bit value) surviving ideal decoding.  This is the criterion used for the
// Figure 4 comparison of encoded-zero preparation circuits.
func (c Code) IsUncorrectableZeroAncilla(xMask, zMask uint8) bool {
	return c.Decode(xMask) == LogicalError
}

// IsHarmlessOnZeroAncilla reports whether an error frame leaves an encoded
// |0> ancilla in exactly the ideal state: the X pattern must be a stabilizer
// element and the Z pattern must have trivial syndrome (stabilizer or
// logical Z, both of which act trivially on |0>_L).
func (c Code) IsHarmlessOnZeroAncilla(xMask, zMask uint8) bool {
	return c.IsStabilizer(xMask) && c.Syndrome(zMask) == 0
}

// EncodingPivots returns, for each stabilizer generator in reduced form, the
// pivot qubit that receives a Hadamard in the encoding circuit and the target
// qubits that receive CX gates from it.  This is the structure of the Basic
// Encoded Zero Ancilla Prepare of Figure 3b: three Hadamards followed by nine
// CX gates in three groups of three.
func (c Code) EncodingPivots() []EncodingRow {
	// The generators in NewCode are already in reduced row-echelon form with
	// pivots at qubits 0, 1 and 3.
	rows := []EncodingRow{
		{Pivot: 0, Targets: []int{2, 4, 6}},
		{Pivot: 1, Targets: []int{2, 5, 6}},
		{Pivot: 3, Targets: []int{4, 5, 6}},
	}
	return rows
}

// EncodingRow is one row of the encoding procedure: Hadamard on Pivot, then
// CX from Pivot to each Target.
type EncodingRow struct {
	Pivot   int
	Targets []int
}

// VerificationSupport returns the qubits coupled to the 3-qubit cat state
// during verification (Figure 4a / Stage 3 of the pipelined factory).  It is
// a weight-3 representative of the logical Z operator, so the measured parity
// reveals logical bit-flip errors on the freshly encoded |0>.
func (c Code) VerificationSupport() []int {
	// Z_L = Z on all seven qubits; multiplying by the {3,4,5,6} stabilizer
	// gives the weight-3 representative {0,1,2}.
	return []int{0, 1, 2}
}
