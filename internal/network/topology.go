package network

import (
	"fmt"

	"speedofdata/internal/layout"
)

// Link is one directed inter-tile channel of the mesh.  Each direction of a
// physical tile boundary is its own channel: it has its own EPR-pair
// generator and buffer, so traffic flowing east never contends with traffic
// flowing west across the same boundary.
type Link struct {
	From, To int
}

// String renders the link the way the replay diagnostics name it.
func (l Link) String() string { return fmt.Sprintf("%d->%d", l.From, l.To) }

// Topology is the 2D mesh arrangement of a tiled Qalypso machine
// (Section 5.3): tile i sits at mesh coordinate (i mod Cols, i div Cols),
// and teleports route between tiles with deterministic dimension-order
// routing.  The zero value is invalid; build with NewTopology.
type Topology struct {
	// Cols and Rows are the mesh dimensions.
	Cols, Rows int
	// Tiles is the number of populated tiles; only the last row may be
	// partial.  Zero means the full Cols×Rows grid.
	Tiles int
}

// NewTopology arranges n tiles on a near-square mesh (layout.MeshDims).
func NewTopology(n int) Topology {
	cols, rows := layout.MeshDims(n)
	return Topology{Cols: cols, Rows: rows, Tiles: n}
}

// TileCount returns the number of populated tiles.
func (t Topology) TileCount() int {
	if t.Tiles > 0 {
		return t.Tiles
	}
	return t.Cols * t.Rows
}

// Coord returns tile i's mesh coordinate.
func (t Topology) Coord(i int) (x, y int) { return i % t.Cols, i / t.Cols }

// Index returns the tile at mesh coordinate (x, y).
func (t Topology) Index(x, y int) int { return y*t.Cols + x }

// HopDistance returns the routed distance between two tiles in links: the
// Manhattan distance on the mesh.  The partial-row fallback in Route never
// changes the length, only the order of the legs.
func (t Topology) HopDistance(a, b int) int {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

// Route returns the directed links of the deterministic dimension-order
// (X-then-Y) route from tile a to tile b.  When the X-first leg would cross
// an unpopulated cell of a partial last row, the route runs Y-then-X
// instead, which stays on populated tiles and has the same length.
func (t Topology) Route(a, b int) []Link {
	if a == b {
		return nil
	}
	if r, ok := t.walk(a, b, true); ok {
		return r
	}
	r, _ := t.walk(a, b, false)
	return r
}

// walk builds one dimension-order route, X legs first or Y legs first,
// reporting failure if it would step onto an unpopulated cell.
func (t Topology) walk(a, b int, xFirst bool) ([]Link, bool) {
	n := t.TileCount()
	x, y := t.Coord(a)
	bx, by := t.Coord(b)
	route := make([]Link, 0, t.HopDistance(a, b))
	cur := a
	step := func() bool {
		next := t.Index(x, y)
		if next >= n {
			return false
		}
		route = append(route, Link{From: cur, To: next})
		cur = next
		return true
	}
	walkX := func() bool {
		for x != bx {
			x += sign(bx - x)
			if !step() {
				return false
			}
		}
		return true
	}
	walkY := func() bool {
		for y != by {
			y += sign(by - y)
			if !step() {
				return false
			}
		}
		return true
	}
	if xFirst {
		if !walkX() || !walkY() {
			return nil, false
		}
	} else {
		if !walkY() || !walkX() {
			return nil, false
		}
	}
	return route, true
}

// RouteAvoiding returns a route from a to b that crosses no link for which
// down reports true, along with whether the route deviates from the
// fault-free dimension-order choice.  The fallback ladder is deterministic:
// the preferred dimension order (Route's choice), then the opposite order,
// then a breadth-first detour over healthy links — always a shortest healthy
// path, so a returned route is never longer than TileCount()-1 links.  When
// the failures disconnect a from b it returns an error wrapping
// ErrPartitioned.
func (t Topology) RouteAvoiding(a, b int, down func(Link) bool) ([]Link, bool, error) {
	if r := t.Route(a, b); routeClear(r, down) {
		return r, false, nil
	}
	// Y first, when it stays on populated tiles; where Route already took
	// it, it is the blocked route again and falls through.
	if r, ok := t.walk(a, b, false); ok && routeClear(r, down) {
		return r, true, nil
	}
	if r := t.bfsRoute(a, b, down); r != nil {
		return r, true, nil
	}
	return nil, false, fmt.Errorf("network: no route from tile %d to tile %d over the surviving links: %w", a, b, ErrPartitioned)
}

// routeClear reports whether no link of the route is down.
func routeClear(route []Link, down func(Link) bool) bool {
	for _, l := range route {
		if down(l) {
			return false
		}
	}
	return true
}

// bfsRoute finds a shortest path over healthy links, expanding neighbours in
// the same east, west, south, north order Links uses so ties resolve the
// same way on every run.  nil means no path exists.
func (t Topology) bfsRoute(a, b int, down func(Link) bool) []Link {
	n := t.TileCount()
	prev := make([]int, n)
	for i := range prev {
		prev[i] = -1
	}
	prev[a] = a
	queue := make([]int, 0, n)
	queue = append(queue, a)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == b {
			break
		}
		x, y := t.Coord(cur)
		for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if nx < 0 || nx >= t.Cols || ny < 0 || ny >= t.Rows {
				continue
			}
			next := t.Index(nx, ny)
			if next >= n || prev[next] >= 0 || down(Link{From: cur, To: next}) {
				continue
			}
			prev[next] = cur
			queue = append(queue, next)
		}
	}
	if prev[b] < 0 {
		return nil
	}
	// Walk the predecessor chain back from b and reverse it into links.
	hops := 0
	for cur := b; cur != a; cur = prev[cur] {
		hops++
	}
	route := make([]Link, hops)
	for cur := b; cur != a; cur = prev[cur] {
		hops--
		route[hops] = Link{From: prev[cur], To: cur}
	}
	return route
}

// Links returns every directed link between adjacent populated tiles in a
// stable order (ascending source tile; east, west, south, north neighbour),
// which is what makes link-indexed replay state deterministic.
func (t Topology) Links() []Link {
	n := t.TileCount()
	var links []Link
	for i := 0; i < n; i++ {
		x, y := t.Coord(i)
		for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if nx < 0 || nx >= t.Cols || ny < 0 || ny >= t.Rows {
				continue
			}
			if j := t.Index(nx, ny); j < n {
				links = append(links, Link{From: i, To: j})
			}
		}
	}
	return links
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	return 1
}
