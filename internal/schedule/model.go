// Package schedule characterises logical circuits the way Section 3 of the
// paper does: it computes the critical-path split between useful data
// operations, data/ancilla QEC interaction and (data-independent) encoded
// ancilla preparation (Table 2), the average encoded-ancilla bandwidths
// needed to run at the speed of data (Table 3), the time profile of ancilla
// demand (Figure 7) and the execution time as a function of a steady ancilla
// throughput (Figure 8).
package schedule

import (
	"fmt"

	"speedofdata/internal/iontrap"
	"speedofdata/internal/quantum"
)

// LatencyModel maps logical gates on [[7,1,3]]-encoded qubits to latencies
// under a physical technology, together with the QEC accounting rules of
// Section 3 (a QEC step follows every useful gate and consumes two encoded
// zero ancillae; every π/8 gate additionally consumes one encoded π/8
// ancilla).
type LatencyModel struct {
	Tech iontrap.Technology
	// ZeroAncillaePerQEC is the number of encoded zero ancillae a QEC step
	// consumes (two: one for bit correction, one for phase correction).
	ZeroAncillaePerQEC int
	// SerialZeroPrepLatency is the latency of preparing one high-fidelity
	// encoded zero ancilla serially (used only for the no-overlap Table 2
	// column; the default is the simple ancilla factory latency of
	// Section 4.3, 323 µs under ion-trap parameters).
	SerialZeroPrepLatency iontrap.Microseconds
}

// DefaultLatencyModel returns the model used throughout the reproduction:
// ion-trap latencies, two zero ancillae per QEC step, and the simple-factory
// serial preparation latency.
func DefaultLatencyModel() LatencyModel {
	tech := iontrap.Default()
	return LatencyModel{
		Tech:                  tech,
		ZeroAncillaePerQEC:    2,
		SerialZeroPrepLatency: SimpleFactoryLatency(tech),
	}
}

// SimpleFactoryLatency evaluates the paper's hand-optimised simple-factory
// schedule (Section 4.3): tprep + 2·tmeas + 6·t2q + 2·t1q + 8·tturn + 30·tmove.
func SimpleFactoryLatency(t iontrap.Technology) iontrap.Microseconds {
	return iontrap.Expr(
		iontrap.OpZeroPrep, 1,
		iontrap.OpMeasure, 2,
		iontrap.OpTwoQubitGate, 6,
		iontrap.OpOneQubitGate, 2,
		iontrap.OpTurn, 8,
		iontrap.OpStraightMove, 30,
	).Eval(t)
}

// Validate reports an error for inconsistent model parameters.
func (m LatencyModel) Validate() error {
	if err := m.Tech.Validate(); err != nil {
		return err
	}
	if m.ZeroAncillaePerQEC <= 0 {
		return fmt.Errorf("schedule: ZeroAncillaePerQEC must be positive, got %d", m.ZeroAncillaePerQEC)
	}
	if m.SerialZeroPrepLatency <= 0 {
		return fmt.Errorf("schedule: SerialZeroPrepLatency must be positive, got %v", m.SerialZeroPrepLatency)
	}
	return nil
}

// DataOpLatency returns the latency of the useful (data-touching) part of an
// encoded gate:
//
//   - transversal one-qubit gates take one physical one-qubit gate time;
//   - transversal two-qubit gates take one physical two-qubit gate time;
//   - the non-transversal π/8 gate interacts a prepared π/8 ancilla with the
//     data transversally: a transversal CX, a measurement and a conditional
//     correction (Figure 5a);
//   - preparations and measurements take their physical times.
func (m LatencyModel) DataOpLatency(g quantum.Gate) iontrap.Microseconds {
	t := m.Tech
	switch {
	case g.Kind.RequiresPi8Ancilla():
		return t.LatencyOf(iontrap.OpTwoQubitGate) + t.LatencyOf(iontrap.OpMeasure) + t.LatencyOf(iontrap.OpOneQubitGate)
	case g.Kind.IsPreparation():
		return t.LatencyOf(iontrap.OpZeroPrep)
	case g.Kind.IsMeasurement():
		return t.LatencyOf(iontrap.OpMeasure)
	case g.Kind.Arity() >= 2:
		return t.LatencyOf(iontrap.OpTwoQubitGate)
	default:
		return t.LatencyOf(iontrap.OpOneQubitGate)
	}
}

// QECInteractLatency returns the data-dependent part of one QEC step: a
// transversal CX, a measurement and a conditional correction for each of the
// bit and phase corrections (Figure 2).
func (m LatencyModel) QECInteractLatency() iontrap.Microseconds {
	t := m.Tech
	per := t.LatencyOf(iontrap.OpTwoQubitGate) + t.LatencyOf(iontrap.OpMeasure) + t.LatencyOf(iontrap.OpOneQubitGate)
	return 2 * per
}

// AncillaPrepLatency returns the data-independent part of one QEC step when
// nothing is overlapped: the serial preparation of the encoded zero ancillae
// the step consumes.
func (m LatencyModel) AncillaPrepLatency() iontrap.Microseconds {
	return iontrap.Microseconds(float64(m.ZeroAncillaePerQEC) * float64(m.SerialZeroPrepLatency))
}

// GateWeightNoOverlap is the per-gate critical-path weight when QEC and
// ancilla preparation are fully serialised behind the data operation.
func (m LatencyModel) GateWeightNoOverlap(g quantum.Gate) iontrap.Microseconds {
	return m.DataOpLatency(g) + m.QECInteractLatency() + m.AncillaPrepLatency()
}

// GateWeightSpeedOfData is the per-gate weight when ancilla preparation is
// fully off the critical path: only the data operation and the data/ancilla
// QEC interaction remain (the paper's "speed of data").
func (m LatencyModel) GateWeightSpeedOfData(g quantum.Gate) iontrap.Microseconds {
	return m.DataOpLatency(g) + m.QECInteractLatency()
}

// GatePrices is a latency model's per-gate prices tabulated by gate kind, in
// microseconds: entry k of each array is what the method of the same name
// returns for a gate of kind k.  The replays and the critical paths price
// every gate from it instead of reading the technology's latency map.
type GatePrices struct {
	DataOp      [quantum.NumGateKinds]float64
	SpeedOfData [quantum.NumGateKinds]float64
	NoOverlap   [quantum.NumGateKinds]float64
}

// Prices tabulates DataOpLatency, GateWeightSpeedOfData and
// GateWeightNoOverlap for every gate kind.  Each entry is the method's own
// result, so pricing a gate from the table is bit-identical to calling it.
func (m LatencyModel) Prices() GatePrices {
	var p GatePrices
	for k := range quantum.NumGateKinds {
		g := quantum.Gate{Kind: k}
		p.DataOp[k] = float64(m.DataOpLatency(g))
		p.SpeedOfData[k] = float64(m.GateWeightSpeedOfData(g))
		p.NoOverlap[k] = float64(m.GateWeightNoOverlap(g))
	}
	return p
}
