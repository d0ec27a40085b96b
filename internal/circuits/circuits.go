// Package circuits generates the paper's benchmark kernels (Section 3.1):
// the 32-bit Quantum Ripple-Carry Adder (QRCA), the 32-bit Quantum
// Carry-Lookahead Adder (QCLA) and the 32-bit Quantum Fourier Transform
// (QFT), all expressed as logical circuits over encoded qubits in the shared
// quantum.Circuit IR.
//
// The adders are generated first with explicit Toffoli gates (so their
// arithmetic can be verified exactly with the package's classical reversible
// simulator) and then lowered to the Clifford+T set the [[7,1,3]] code
// supports, with each Toffoli expanded into the standard 7-T-gate network.
// The QFT's controlled-phase rotations are decomposed per Section 2.5 into CX
// gates plus single-qubit π/2^k rotations, which are synthesised into H/T
// sequences sized by the fowler package's length model.
package circuits

import (
	"fmt"
	"strings"

	"speedofdata/internal/quantum"
)

// Benchmark identifies one of the paper's three kernels.
type Benchmark int

const (
	// QRCA is the quantum ripple-carry adder.
	QRCA Benchmark = iota
	// QCLA is the quantum carry-lookahead adder.
	QCLA
	// QFT is the quantum Fourier transform.
	QFT
)

// String names the benchmark the way the paper's tables do.
func (b Benchmark) String() string {
	switch b {
	case QRCA:
		return "QRCA"
	case QCLA:
		return "QCLA"
	case QFT:
		return "QFT"
	default:
		return fmt.Sprintf("benchmark(%d)", int(b))
	}
}

// Benchmarks returns the paper's three kernels in presentation order.
func Benchmarks() []Benchmark { return []Benchmark{QRCA, QCLA, QFT} }

// ParseBenchmark resolves a flag or request parameter value to a benchmark.
// Matching is case-insensitive.
func ParseBenchmark(name string) (Benchmark, error) {
	for _, b := range Benchmarks() {
		if strings.EqualFold(name, b.String()) {
			return b, nil
		}
	}
	return 0, fmt.Errorf("circuits: unknown benchmark %q (want QRCA, QCLA or QFT)", name)
}

// Generate builds the named benchmark at the given width with default
// options (Toffolis decomposed, QFT rotations synthesised).
func Generate(b Benchmark, bits int) (*quantum.Circuit, error) {
	switch b {
	case QRCA:
		return GenerateQRCA(QRCAConfig{Bits: bits, DecomposeToffoli: true})
	case QCLA:
		return GenerateQCLA(QCLAConfig{Bits: bits, DecomposeToffoli: true})
	case QFT:
		return GenerateQFT(DefaultQFTConfig(bits))
	default:
		return nil, fmt.Errorf("circuits: unknown benchmark %v", b)
	}
}

// appendToffoli appends a Toffoli gate either directly or expanded into the
// standard Clifford+T network (7 T/Tdg, 6 CX, 2 H), depending on decompose.
func appendToffoli(c *quantum.Circuit, a, b, target int, decompose bool) {
	if !decompose {
		c.Add(quantum.GateToffoli, a, b, target)
		return
	}
	// Standard decomposition (Nielsen & Chuang Fig. 4.9).
	c.Add(quantum.GateH, target)
	c.Add(quantum.GateCX, b, target)
	c.Add(quantum.GateTdg, target)
	c.Add(quantum.GateCX, a, target)
	c.Add(quantum.GateT, target)
	c.Add(quantum.GateCX, b, target)
	c.Add(quantum.GateTdg, target)
	c.Add(quantum.GateCX, a, target)
	c.Add(quantum.GateT, b)
	c.Add(quantum.GateT, target)
	c.Add(quantum.GateH, target)
	c.Add(quantum.GateCX, a, b)
	c.Add(quantum.GateT, a)
	c.Add(quantum.GateTdg, b)
	c.Add(quantum.GateCX, a, b)
}
