package network

import (
	"errors"
	"fmt"
)

// ErrPartitioned reports that link failures disconnected the mesh: some
// routed teleport has no healthy path between its endpoints.  Callers match
// it with errors.Is; the HTTP server surfaces it as a 400 (the requested
// fault plan asks for an unroutable machine, it is not a server fault).
var ErrPartitioned = errors.New("network: mesh partitioned by link failures")

// LinkFault is one injected interconnect fault: a directed link either dies
// outright or has its EPR-pair generation rate degraded.  Faults are static:
// they shape the link before the replay's first event.
type LinkFault struct {
	// Link is the directed channel the fault strikes.
	Link Link
	// Dead kills the link: its generator never starts, its channel stays
	// empty, and every route is resolved around it.
	Dead bool
	// RateFactor in (0, 1) scales the link's EPR generation rate for a
	// degradation fault (ignored when Dead).
	RateFactor float64
}

// FaultPlan is a deterministic set of link faults injected into one replay
// through Config.Faults.  Entries on one link combine: a dead entry wins over
// every degradation in either order, and among degradations the last factor
// wins.  The empty plan is the pristine mesh and replays byte-identically to
// a config without one.
type FaultPlan []LinkFault

// Validate rejects plans no replay on the given topology can apply.
func (p FaultPlan) Validate(topo Topology) error {
	for i, f := range p {
		from, to := f.Link.From, f.Link.To
		n := topo.TileCount()
		if from < 0 || from >= n || to < 0 || to >= n || topo.HopDistance(from, to) != 1 {
			return fmt.Errorf("network: fault %d targets %s, not a link of the %dx%d mesh (%d tiles)",
				i, f.Link, topo.Cols, topo.Rows, n)
		}
		if !f.Dead && !(f.RateFactor > 0 && f.RateFactor < 1) {
			return fmt.Errorf("network: fault %d on %s: degradation rate factor %v must be in (0, 1)",
				i, f.Link, f.RateFactor)
		}
	}
	return nil
}

// FaultStats is the fault decomposition of a replay, alongside the existing
// compute / factory-starved / network-blocked split: how much routing and
// waiting the injected faults caused.  A zero-fault replay reports the zero
// value.
type FaultStats struct {
	// FailedLinks and DegradedLinks count the distinct directed links the
	// plan kills and degrades; a link that is both counts as failed only.
	FailedLinks   int
	DegradedLinks int
	// Reroutes counts teleports launched on a route that deviates from the
	// fault-free dimension-order choice.
	Reroutes int
	// DetourHops is the extra link traversals beyond the Manhattan
	// distance, summed over rerouted teleports.
	DetourHops int
	// DegradedWaitUs is the EPR-pair queueing time accumulated at links
	// while they were degraded — the "time lost to degradation" share of
	// the network-blocked total.
	DegradedWaitUs float64
}

// BisectionBoundary returns the two directed links of the canonical
// mesh-bisection boundary — the tile boundary crossing the vertical cut
// between the middle columns at row 0 (the horizontal cut on a 1-column
// mesh) — and false when the mesh has no links.  Killing both directions
// models one physical link failing; the netfault scenario uses it as the
// worst natural single failure.
func BisectionBoundary(t Topology) ([2]Link, bool) {
	if t.TileCount() < 2 {
		return [2]Link{}, false
	}
	if t.Cols > 1 {
		cx := (t.Cols - 1) / 2
		a, b := t.Index(cx, 0), t.Index(cx+1, 0)
		return [2]Link{{From: a, To: b}, {From: b, To: a}}, true
	}
	cy := (t.Rows - 1) / 2
	a, b := t.Index(0, cy), t.Index(0, cy+1)
	return [2]Link{{From: a, To: b}, {From: b, To: a}}, true
}

// Boundaries returns the undirected tile boundaries of the mesh (each pair
// of directed links collapsed to its From < To representative) in the stable
// Links order.  The netdegrade scenario kills them in this order.
func Boundaries(t Topology) []Link {
	var out []Link
	for _, l := range t.Links() {
		if l.From < l.To {
			out = append(out, l)
		}
	}
	return out
}

// DegradeAllLinks builds a static plan degrading every link of the mesh to
// factor times its EPR rate — the "25%-degraded links" arm of netfault is
// DegradeAllLinks(topo, 0.75).
func DegradeAllLinks(t Topology, factor float64) FaultPlan {
	links := t.Links()
	plan := make(FaultPlan, len(links))
	for i, l := range links {
		plan[i] = LinkFault{Link: l, RateFactor: factor}
	}
	return plan
}

// KillBoundaries builds a static plan killing the first n undirected
// boundaries (both directions each) in Boundaries order.
func KillBoundaries(t Topology, n int) FaultPlan {
	var plan FaultPlan
	for i, b := range Boundaries(t) {
		if i >= n {
			break
		}
		plan = append(plan,
			LinkFault{Link: b, Dead: true},
			LinkFault{Link: Link{From: b.To, To: b.From}, Dead: true})
	}
	return plan
}
