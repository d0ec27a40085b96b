package factory

import (
	"math"

	"speedofdata/internal/iontrap"
	"speedofdata/internal/steane"
)

// Pi8FactoryUnits returns the four pipeline stages of the encoded-π/8 ancilla
// factory exactly as Table 7 defines them.  Bandwidths here are in physical
// qubits: the transversal stage consumes fourteen qubits per operation (the
// seven-qubit cat state plus the encoded zero supplied by a zero factory) and
// the decode stage emits eight (the decoded cat qubit plus the stored encoded
// block).
func Pi8FactoryUnits() []FunctionalUnit {
	return []FunctionalUnit{
		{
			Name: "Cat State Prepare",
			Latency: iontrap.Expr(
				iontrap.OpTwoQubitGate, 7, iontrap.OpTurn, 14, iontrap.OpStraightMove, 8),
			InternalStages: 1,
			QubitsIn:       steane.N, QubitsOut: steane.N,
			Height: 6, Area: 12,
		},
		{
			Name: "Transversal CX/CS/CZ/pi8",
			Latency: iontrap.Expr(
				iontrap.OpTwoQubitGate, 3, iontrap.OpTurn, 2, iontrap.OpStraightMove, 3),
			InternalStages: 1,
			QubitsIn:       2 * steane.N, QubitsOut: 2 * steane.N,
			// Half the input is the encoded zero supplied by a zero factory,
			// not by the preceding cat-prepare stage.
			ExternalIn: steane.N,
			Height:     7, Area: 7,
		},
		{
			Name: "Decode (plus Store)",
			Latency: iontrap.Expr(
				iontrap.OpTwoQubitGate, 7, iontrap.OpTurn, 14, iontrap.OpStraightMove, 8),
			InternalStages: 1,
			QubitsIn:       2 * steane.N, QubitsOut: steane.N + 1,
			Height: 13, Area: 19,
		},
		{
			Name: "H/M/Transversal Z",
			Latency: iontrap.Expr(
				iontrap.OpMeasure, 1, iontrap.OpOneQubitGate, 2,
				iontrap.OpTurn, 2, iontrap.OpStraightMove, 2),
			InternalStages: 1,
			QubitsIn:       steane.N + 1, QubitsOut: steane.N,
			Height: 8, Area: 8,
		},
	}
}

func pi8UnitByName(name string) FunctionalUnit {
	for _, u := range Pi8FactoryUnits() {
		if u.Name == name {
			return u
		}
	}
	panic("factory: unknown pi/8 factory unit " + name)
}

// Pi8Factory sizes the encoded-π/8 ancilla factory of Section 4.4.2 by
// bandwidth matching.  A single transversal-interaction unit paces the
// design; the expensive cat-state-preparation stage is sized to come as close
// to that pace as possible without over-provisioning (making it the
// bottleneck, as the paper observes), and the decode and measurement stages
// are sized to keep up with the realised rate.  With ion-trap parameters this
// reproduces the Table 8 unit counts (4 / 1 / 4 / 2), the 403-macroblock area
// and the ~18.3 encoded π/8 ancillae per millisecond throughput.
//
// The factory consumes one encoded zero ancilla per produced π/8 ancilla;
// that supply is accounted separately (Section 5.1, Pi8SupplyArea).
func Pi8Factory(tech iontrap.Technology) Design {
	cat := pi8UnitByName("Cat State Prepare")
	trans := pi8UnitByName("Transversal CX/CS/CZ/pi8")
	decode := pi8UnitByName("Decode (plus Store)")
	hmz := pi8UnitByName("H/M/Transversal Z")

	// One transversal unit sets the ceiling: each of its operations turns one
	// 7-qubit cat plus one encoded zero into one candidate π/8 ancilla.
	transOpsPerMs := trans.OpsPerMs(tech)

	// Each cat unit produces one 7-qubit cat per pass.  Size the stage as
	// large as possible without exceeding the transversal ceiling: the cat
	// stage then paces the whole factory.
	catOpsPerUnit := cat.OpsPerMs(tech)
	catUnits := int(math.Floor(transOpsPerMs/catOpsPerUnit + 1e-9))
	if catUnits < 1 {
		catUnits = 1
	}
	throughput := float64(catUnits) * catOpsPerUnit
	if throughput > transOpsPerMs {
		throughput = transOpsPerMs
	}

	decodeUnits := unitsFor(throughput, decode.OpsPerMs(tech))
	hmzUnits := unitsFor(throughput, hmz.OpsPerMs(tech))

	return Design{
		Name: "encoded pi/8 ancilla factory",
		Tech: tech,
		Stages: []Stage{
			{Name: "Cat State Prepare", Allocations: []Allocation{{Unit: cat, Count: catUnits}}},
			{Name: "Transversal Interaction", Allocations: []Allocation{{Unit: trans, Count: 1}}},
			{Name: "Decode", Allocations: []Allocation{{Unit: decode, Count: decodeUnits}}},
			{Name: "Measure/Fixup", Allocations: []Allocation{{Unit: hmz, Count: hmzUnits}}},
		},
		// Qubits must move in both directions through every crossbar
		// (recycling the decoded cat qubits), so all crossbars get two
		// columns (Section 4.4.2).
		CrossbarColumns: []int{2, 2, 2},
		ThroughputPerMs: throughput,
		OutputLatencyUs: cat.LatencyUs(tech) + trans.LatencyUs(tech) +
			decode.LatencyUs(tech) + hmz.LatencyUs(tech),
	}
}

// Pi8SupplyArea returns the total area needed to supply a π/8 ancilla
// bandwidth: the π/8 encoding factories themselves plus the encoded-zero
// factories that feed them (the accounting used by Table 9's last column).
func Pi8SupplyArea(pi8 Design, zero Design, pi8PerMs float64) iontrap.Area {
	return pi8.AreaForBandwidth(pi8PerMs) + zero.AreaForBandwidth(pi8PerMs)
}
