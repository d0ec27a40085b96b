package network

import (
	"fmt"

	"speedofdata/internal/quantum"
)

// Partition is a deterministic assignment of a circuit's qubits to mesh
// tiles.
type Partition struct {
	// TileOf maps each qubit index to its tile.
	TileOf []int
	// Tiles is the tile count the partition was built for.
	Tiles int
	// CrossGates counts the circuit's multi-qubit gates whose operands span
	// tiles under this assignment — each will issue routed teleports.
	CrossGates int
	// Key fingerprints the partition inputs (the circuit fingerprint plus
	// the tile count); the sweep jobs (Sweep) key their cache entries with
	// it.
	Key string
}

// PartitionCircuit assigns the circuit's qubits to tiles in two
// deterministic passes.  The first pass is stable round-robin by first use:
// qubits claim tiles in the order the gate stream first touches them, so
// early co-operands tend to land apart and the mesh load is balanced.  The
// second pass is a single greedy affinity sweep over the same order: a qubit
// moves to the tile holding the plurality of its two-qubit-gate partners
// when that strictly reduces its cross-tile edges and the tile has room
// (each tile holds at most ceil(qubits/tiles)).  Both passes depend only on
// the circuit and the tile count, so the same inputs always produce the same
// assignment.
func PartitionCircuit(c *quantum.Circuit, tiles int) (Partition, error) {
	if tiles < 1 {
		return Partition{}, fmt.Errorf("network: partition needs at least one tile, got %d", tiles)
	}
	if err := c.Validate(); err != nil {
		return Partition{}, err
	}
	n := c.NumQubits
	p := Partition{
		TileOf: make([]int, n),
		Tiles:  tiles,
		Key:    fmt.Sprintf("%s|tiles=%d", c.Fingerprint(), tiles),
	}
	if n == 0 {
		return p, nil
	}
	capacity := (n + tiles - 1) / tiles

	// Pass 1: round-robin by first use.
	for i := range p.TileOf {
		p.TileOf[i] = -1
	}
	occ := make([]int, tiles)
	firstUse := make([]int, 0, n)
	seq := 0
	assign := func(q int) {
		if p.TileOf[q] >= 0 {
			return
		}
		for occ[seq%tiles] >= capacity {
			seq++
		}
		p.TileOf[q] = seq % tiles
		occ[seq%tiles]++
		seq++
		firstUse = append(firstUse, q)
	}
	for _, g := range c.Gates {
		for _, q := range g.Qubits {
			assign(q)
		}
	}
	for q := 0; q < n; q++ {
		assign(q) // qubits no gate touches
	}

	// Pass 2: greedy affinity.  adj[q] weighs q's two-qubit-gate partners;
	// per-tile sums are order-independent, so the map needs no sorting.
	adj := make([]map[int]int, n)
	for _, g := range c.Gates {
		if len(g.Qubits) < 2 {
			continue
		}
		for i := 0; i < len(g.Qubits); i++ {
			for j := i + 1; j < len(g.Qubits); j++ {
				a, b := g.Qubits[i], g.Qubits[j]
				if adj[a] == nil {
					adj[a] = make(map[int]int)
				}
				if adj[b] == nil {
					adj[b] = make(map[int]int)
				}
				adj[a][b]++
				adj[b][a]++
			}
		}
	}
	weight := make([]int, tiles)
	for _, q := range firstUse {
		if adj[q] == nil {
			continue
		}
		for t := range weight {
			weight[t] = 0
		}
		for partner, w := range adj[q] {
			weight[p.TileOf[partner]] += w
		}
		cur := p.TileOf[q]
		best := cur
		for t := 0; t < tiles; t++ {
			if t == cur || occ[t] >= capacity {
				continue
			}
			if weight[t] > weight[best] {
				best = t
			}
		}
		if best != cur {
			occ[cur]--
			occ[best]++
			p.TileOf[q] = best
		}
	}

	for _, g := range c.Gates {
		if spansTiles(p.TileOf, g) {
			p.CrossGates++
		}
	}
	return p, nil
}

// spansTiles reports whether the gate's operands live on more than one tile.
func spansTiles(tileOf []int, g quantum.Gate) bool {
	if len(g.Qubits) < 2 {
		return false
	}
	home := tileOf[g.Qubits[0]]
	for _, q := range g.Qubits[1:] {
		if tileOf[q] != home {
			return true
		}
	}
	return false
}
