package circuits

import (
	"fmt"

	"speedofdata/internal/fowler"
	"speedofdata/internal/quantum"
)

// QFTConfig parameterises the quantum Fourier transform generator.
type QFTConfig struct {
	// Bits is the transform width n (the paper uses 32).
	Bits int
	// MaxK truncates the controlled rotations: controlled-π/2^k gates with
	// k > MaxK are dropped.  Rotations below the physical error floor
	// contribute nothing, so truncation at k ≈ 8 is standard practice; set
	// MaxK to Bits+1 for the full exponential-precision transform.
	MaxK int
	// SynthesisEps is the target precision for each synthesised single-qubit
	// rotation (Section 2.5: exhaustive search over H/T sequences up to an
	// acceptable error).
	SynthesisEps float64
	// LengthModel sizes the representative H/T sequence of each synthesised
	// rotation at SynthesisEps.
	LengthModel fowler.LengthModel
}

// DefaultQFTConfig returns the configuration used for the paper reproduction:
// truncation at k = 8 and 1e-3 synthesis precision, with sequences sized by
// the default length model.
func DefaultQFTConfig(bits int) QFTConfig {
	return QFTConfig{
		Bits:         bits,
		MaxK:         8,
		SynthesisEps: 1e-3,
		LengthModel:  fowler.DefaultLengthModel(),
	}
}

// QFTStats reports how the generator synthesised the transform.
type QFTStats struct {
	// ControlledRotations is the number of controlled-π/2^k gates kept.
	ControlledRotations int
	// TruncatedRotations is the number dropped by the MaxK cutoff.
	TruncatedRotations int
	// SynthesisedRotations is the number of single-qubit rotations replaced
	// by H/T sequences (as opposed to exact Clifford+T gates).
	SynthesisedRotations int
}

// GenerateQFT builds the n-qubit QFT lowered to the fault-tolerant gate set:
// Hadamards, CX, and single-qubit π/2^k rotations realised exactly (Z, S, T
// and daggers) or as synthesised H/T sequences per Section 2.5.
func GenerateQFT(cfg QFTConfig) (*quantum.Circuit, error) {
	c, _, err := GenerateQFTWithStats(cfg)
	return c, err
}

// GenerateQFTWithStats is GenerateQFT plus synthesis statistics.
func GenerateQFTWithStats(cfg QFTConfig) (*quantum.Circuit, QFTStats, error) {
	n := cfg.Bits
	if n < 1 {
		return nil, QFTStats{}, fmt.Errorf("circuits: QFT width must be >= 1, got %d", n)
	}
	if cfg.MaxK < 2 {
		return nil, QFTStats{}, fmt.Errorf("circuits: QFT MaxK must be >= 2 (controlled-S), got %d", cfg.MaxK)
	}
	if cfg.SynthesisEps <= 0 {
		return nil, QFTStats{}, fmt.Errorf("circuits: QFT synthesis precision must be positive")
	}
	var stats QFTStats
	c := quantum.NewCircuit(fmt.Sprintf("%d-bit QFT", n), n)
	for i := 0; i < n; i++ {
		c.Add(quantum.GateH, i)
		for j := i + 1; j < n; j++ {
			// Controlled rotation between qubits i and j at distance d is a
			// controlled-π/2^(d+1) gate in the paper's naming (adjacent
			// qubits interact through a controlled-S).
			k := (j - i) + 1
			if k > cfg.MaxK {
				stats.TruncatedRotations++
				continue
			}
			stats.ControlledRotations++
			appendControlledRotation(c, &cfg, &stats, j, i, k)
		}
	}
	return c, stats, nil
}

// appendControlledRotation decomposes a controlled-π/2^k gate into CX gates
// and three single-qubit π/2^(k+1) rotations (Section 2.5 / reference [14]):
// Rz(θ/2) on the control, Rz(θ/2) on the target, then CX, Rz(-θ/2) on the
// target, CX.
func appendControlledRotation(c *quantum.Circuit, cfg *QFTConfig, stats *QFTStats, control, target, k int) {
	appendRotation(c, cfg, stats, control, k+1, false)
	appendRotation(c, cfg, stats, target, k+1, false)
	c.Add(quantum.GateCX, control, target)
	appendRotation(c, cfg, stats, target, k+1, true)
	c.Add(quantum.GateCX, control, target)
}

// appendRotation appends a single-qubit π/2^k rotation (or its inverse).
// k <= 3 is exact in the fault-tolerant gate set; larger k is synthesised
// into an H/T sequence.
func appendRotation(c *quantum.Circuit, cfg *QFTConfig, stats *QFTStats, qubit, k int, dagger bool) {
	switch {
	case k <= 1:
		c.Add(quantum.GateZ, qubit)
		return
	case k == 2:
		if dagger {
			c.Add(quantum.GateSdg, qubit)
		} else {
			c.Add(quantum.GateS, qubit)
		}
		return
	case k == 3:
		if dagger {
			c.Add(quantum.GateTdg, qubit)
		} else {
			c.Add(quantum.GateT, qubit)
		}
		return
	}
	stats.SynthesisedRotations++
	// A representative sequence sized by the length model: for the
	// architectural evaluation what matters is the gate count, mix and
	// dependence structure of the sequence, all of which it preserves.
	length := cfg.LengthModel.Length(cfg.SynthesisEps)
	appendSequence(c, qubit, representativeSequence(length), dagger)
}

// representativeSequence builds an alternating H/T string of the given
// length, the canonical shape of Fowler-search output (syllables of T gates
// separated by Hadamards).
func representativeSequence(length int) string {
	buf := make([]byte, length)
	for i := range buf {
		if i%2 == 0 {
			buf[i] = 'T'
		} else {
			buf[i] = 'H'
		}
	}
	return string(buf)
}

// appendSequence appends an H/T gate string to the circuit.  For an inverse
// rotation the sequence is reversed with T replaced by Tdg (H is self
// inverse).
func appendSequence(c *quantum.Circuit, qubit int, gates string, dagger bool) {
	if !dagger {
		for i := 0; i < len(gates); i++ {
			appendHT(c, qubit, gates[i], false)
		}
		return
	}
	for i := len(gates) - 1; i >= 0; i-- {
		appendHT(c, qubit, gates[i], true)
	}
}

func appendHT(c *quantum.Circuit, qubit int, gate byte, dagger bool) {
	switch gate {
	case 'H':
		c.Add(quantum.GateH, qubit)
	case 'T':
		if dagger {
			c.Add(quantum.GateTdg, qubit)
		} else {
			c.Add(quantum.GateT, qubit)
		}
	default:
		panic(fmt.Sprintf("circuits: unexpected synthesis gate %q", gate))
	}
}
