// Package layout models the physical organisation of a quantum chip the way
// Section 4.2 and Section 5.3 of the paper do: dense data-only regions
// (Figure 10), ancilla factories with output ports adjacent to the data, the
// Qalypso tile (Figure 16), and the movement model that distinguishes cheap
// ballistic movement inside a region from expensive teleportation between
// regions.
package layout

import (
	"fmt"
	"math"

	"speedofdata/internal/factory"
	"speedofdata/internal/iontrap"
	"speedofdata/internal/steane"
)

// DataRegionArea returns the macroblock area of a dense data-only region
// holding n encoded qubits: one single-column compute region of seven
// macroblocks per qubit (Figure 10), which is the m×n_q accounting used by
// Table 9.
func DataRegionArea(nQubits int) iontrap.Area {
	if nQubits < 0 {
		return 0
	}
	return iontrap.Area(nQubits * steane.N)
}

// MovementModel captures the two ways encoded qubits move in Qalypso:
// ballistic movement through channels inside a region and teleportation over
// the inter-tile interconnect (Section 5.3, reference [16]).
type MovementModel struct {
	// BallisticPerGateUs is the average movement latency added to a
	// two-qubit gate whose operands share a data region.
	BallisticPerGateUs iontrap.Microseconds
	// TeleportUs is the latency of teleporting an encoded qubit between
	// regions (EPR distribution, Bell measurement, Pauli fixup).
	TeleportUs iontrap.Microseconds
	// TeleportAncillae is the number of encoded zero ancillae a teleport
	// consumes; the paper notes QEC performed as part of teleportation needs
	// twice as many ancillae as a straightforward QEC step.
	TeleportAncillae int
}

// DefaultMovementModel derives a movement model from a technology and the
// size of the data region: ballistic movement crosses on the order of the
// region's column height, and teleportation costs two two-qubit gates, a
// measurement, a correction and the channel crossing.
func DefaultMovementModel(tech iontrap.Technology, regionQubits int) MovementModel {
	if regionQubits < 1 {
		regionQubits = 1
	}
	// A dense data-only region of n encoded qubits occupies about 7n
	// macroblocks; laid out compactly its side is the square root of that.
	// The average ballistic trip crosses about half a side and two corners.
	side := int(math.Ceil(math.Sqrt(float64(regionQubits * steane.N))))
	ballistic := iontrap.Expr(
		iontrap.OpStraightMove, (side+1)/2,
		iontrap.OpTurn, 2,
	).Eval(tech)
	// Teleportation between regions: EPR-pair interaction, Bell measurement,
	// Pauli fixup, plus crossing the interconnect (a full region side and
	// several corners).
	teleport := iontrap.Expr(
		iontrap.OpTwoQubitGate, 2,
		iontrap.OpMeasure, 1,
		iontrap.OpOneQubitGate, 1,
		iontrap.OpStraightMove, side,
		iontrap.OpTurn, 4,
	).Eval(tech)
	return MovementModel{
		BallisticPerGateUs: ballistic,
		TeleportUs:         teleport,
		TeleportAncillae:   4,
	}
}

// Validate reports an error for non-physical movement parameters.  Both the
// microarchitecture simulations (microarch.Config) and the interconnect
// replayer (network.Config) call it before running, so a negative, NaN or
// infinite latency fails fast instead of silently producing nonsense
// makespans.
func (m MovementModel) Validate() error {
	for _, l := range []float64{float64(m.BallisticPerGateUs), float64(m.TeleportUs)} {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("layout: non-finite movement latency %v", l)
		}
		if l < 0 {
			return fmt.Errorf("layout: negative movement latency %v", l)
		}
	}
	if m.TeleportAncillae < 0 {
		return fmt.Errorf("layout: negative teleport ancilla count")
	}
	return nil
}

// Tile is one Qalypso tile (Figure 16b): a dense data region surrounded by
// ancilla factories whose output ports face the data.
type Tile struct {
	// DataQubits is the number of encoded data qubits in the tile's region.
	DataQubits int
	// ZeroFactories and Pi8Factories are the whole factories placed around
	// the region.
	ZeroFactories int
	Pi8Factories  int
	// ZeroDesign and Pi8Design are the factory designs used.
	ZeroDesign factory.Design
	Pi8Design  factory.Design
	// ZeroDemandPerMs and Pi8DemandPerMs record the demand the tile was
	// provisioned for; the π/8 factories only consume encoded zeros at the
	// demanded rate, not at their full capacity.
	ZeroDemandPerMs float64
	Pi8DemandPerMs  float64
}

// DataArea is the tile's data-region area.
func (t Tile) DataArea() iontrap.Area { return DataRegionArea(t.DataQubits) }

// FactoryArea is the tile's total factory area.
func (t Tile) FactoryArea() iontrap.Area {
	return iontrap.Area(float64(t.ZeroFactories)*float64(t.ZeroDesign.TotalArea()) +
		float64(t.Pi8Factories)*float64(t.Pi8Design.TotalArea()))
}

// TotalArea is the tile's full footprint.
func (t Tile) TotalArea() iontrap.Area { return t.DataArea() + t.FactoryArea() }

// ZeroBandwidthPerMs is the tile's aggregate encoded-zero production rate,
// net of the zeros consumed by its π/8 factories running at the demanded
// π/8 rate.
func (t Tile) ZeroBandwidthPerMs() float64 {
	gross := float64(t.ZeroFactories) * t.ZeroDesign.ThroughputPerMs
	consumedByPi8 := math.Min(t.Pi8DemandPerMs, float64(t.Pi8Factories)*t.Pi8Design.ThroughputPerMs)
	net := gross - consumedByPi8
	if net < 0 {
		return 0
	}
	return net
}

// PlanTile sizes one Qalypso tile for a region of dataQubits encoded qubits
// that must be fed zeroPerMs encoded zero ancillae and pi8PerMs encoded π/8
// ancillae: enough π/8 factories for the π/8 demand and enough zero factories
// for the QEC demand plus the π/8 factories' own zero consumption.
func PlanTile(tech iontrap.Technology, dataQubits int, zeroPerMs, pi8PerMs float64) (Tile, error) {
	if dataQubits <= 0 {
		return Tile{}, fmt.Errorf("layout: tile needs at least one data qubit, got %d", dataQubits)
	}
	if zeroPerMs < 0 || pi8PerMs < 0 {
		return Tile{}, fmt.Errorf("layout: negative ancilla demand")
	}
	zero := factory.PipelinedZeroFactory(tech)
	pi8 := factory.Pi8Factory(tech)
	pi8Count := pi8.CountForBandwidth(pi8PerMs)
	// Zero factories must cover the QEC demand plus the zeros consumed by
	// the π/8 factories running at the demanded rate.
	zeroDemand := zeroPerMs + pi8PerMs
	zeroCount := zero.CountForBandwidth(zeroDemand)
	if zeroCount == 0 && zeroDemand > 0 {
		zeroCount = 1
	}
	return Tile{
		DataQubits:      dataQubits,
		ZeroFactories:   zeroCount,
		Pi8Factories:    pi8Count,
		ZeroDesign:      zero,
		Pi8Design:       pi8,
		ZeroDemandPerMs: zeroPerMs,
		Pi8DemandPerMs:  pi8PerMs,
	}, nil
}

// MeshDims returns the near-square 2D mesh dimensions the teleport
// interconnect arranges n tiles on (Section 5.3): cols is ceil(sqrt(n)) and
// rows the smallest count covering n, so only the last row may be partial.
// Non-positive n returns (0, 0).
func MeshDims(n int) (cols, rows int) {
	if n <= 0 {
		return 0, 0
	}
	cols = int(math.Ceil(math.Sqrt(float64(n))))
	rows = (n + cols - 1) / cols
	return cols, rows
}

// LinkPorts returns the number of teleport channel ports along one edge of
// the tile: the side length of its square footprint in macroblocks.  Each
// port terminates one EPR distribution channel of the inter-tile link, so
// link bandwidth grows with tile perimeter the way the paper's interconnect
// discussion assumes.
func (t Tile) LinkPorts() int {
	side := int(math.Ceil(math.Sqrt(float64(t.TotalArea()))))
	if side < 1 {
		side = 1
	}
	return side
}

// Qalypso is a complete tiled microarchitecture (Figure 16a): identical tiles
// joined by a teleport-based interconnect.
type Qalypso struct {
	Tiles    []Tile
	Movement MovementModel
}

// PlanQalypso splits a circuit's data qubits into tiles of at most
// tileQubits encoded qubits each and provisions every tile for its share of
// the total ancilla demand.
func PlanQalypso(tech iontrap.Technology, totalQubits, tileQubits int, zeroPerMs, pi8PerMs float64) (Qalypso, error) {
	if totalQubits <= 0 {
		return Qalypso{}, fmt.Errorf("layout: circuit has no data qubits")
	}
	if tileQubits <= 0 {
		return Qalypso{}, fmt.Errorf("layout: tile size must be positive")
	}
	nTiles := int(math.Ceil(float64(totalQubits) / float64(tileQubits)))
	q := Qalypso{Movement: DefaultMovementModel(tech, tileQubits)}
	remaining := totalQubits
	for i := 0; i < nTiles; i++ {
		qubits := tileQubits
		if remaining < qubits {
			qubits = remaining
		}
		remaining -= qubits
		share := float64(qubits) / float64(totalQubits)
		tile, err := PlanTile(tech, qubits, zeroPerMs*share, pi8PerMs*share)
		if err != nil {
			return Qalypso{}, err
		}
		q.Tiles = append(q.Tiles, tile)
	}
	return q, nil
}

// TotalArea is the whole microarchitecture's area.
func (q Qalypso) TotalArea() iontrap.Area {
	var a iontrap.Area
	for _, t := range q.Tiles {
		a += t.TotalArea()
	}
	return a
}

// ZeroBandwidthPerMs is the chip-wide net encoded-zero production rate.
func (q Qalypso) ZeroBandwidthPerMs() float64 {
	total := 0.0
	for _, t := range q.Tiles {
		total += t.ZeroBandwidthPerMs()
	}
	return total
}

// LinkEPRPerMs derives the EPR-pair distribution bandwidth of one inter-tile
// link from the machine's geometry: each of the LinkPorts channel ports along
// the shared tile edge sustains one distributed pair per teleport latency.
// Machines with no tiles or a non-positive teleport latency report zero.
func (q Qalypso) LinkEPRPerMs() float64 {
	if len(q.Tiles) == 0 || q.Movement.TeleportUs <= 0 {
		return 0
	}
	return float64(q.Tiles[0].LinkPorts()) * 1000.0 / float64(q.Movement.TeleportUs)
}
