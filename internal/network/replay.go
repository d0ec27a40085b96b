package network

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"speedofdata/internal/iontrap"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
	"speedofdata/internal/sim"
)

// ReplayResult is one circuit's share of a routed-mesh replay.  It embeds
// the where-time-went decomposition shared with internal/schedule (compute
// busy, factory-starved AncillaWait, NetworkBlocked) and adds the
// interconnect metrics only a routed mesh has.
type ReplayResult struct {
	schedule.ReplayResult
	// CrossGates counts multi-qubit gates whose operands spanned tiles and
	// therefore issued routed teleports.
	CrossGates int
	// Teleports counts routed operand movements; every cross-tile gate
	// teleports each remote operand to the execution tile and back, so it
	// contributes two per remote operand.
	Teleports int
	// Hops counts link traversals summed over all teleports.
	Hops int
	// HopHistogram[d] counts teleports whose one-way route was d links
	// long; index 0 exists but stays zero (local operands never teleport).
	HopHistogram []int
	// TeleportAncillae counts the encoded zeros consumed by teleports, a
	// subset of AncillaeConsumed.
	TeleportAncillae int
}

// LinkStat reports one directed link's behaviour over a replay.
type LinkStat struct {
	// Link identifies the channel.
	Link Link
	// PairsConsumed is the number of EPR pairs teleports drew through it.
	PairsConsumed float64
	// HighWater is the peak buffered pair level the channel reached.
	HighWater float64
	// ProducerStall is the time the link's pair generator spent blocked on
	// a full channel buffer.
	ProducerStall iontrap.Microseconds
}

// ReplayRun is a completed routed-mesh replay.
type ReplayRun struct {
	// Results holds one entry per replayed circuit.
	Results []ReplayResult
	// Topology is the mesh the run executed on.
	Topology Topology
	// Partitions records each circuit's qubit→tile assignment.
	Partitions []Partition
	// Makespan is the completion time across every circuit.
	Makespan iontrap.Microseconds
	// Events is the number of kernel events processed.
	Events int
	// Links holds per-channel statistics in Topology.Links order (empty on
	// a 1-tile mesh).
	Links []LinkStat
	// Faults is the fault decomposition of the run: reroutes, detour hops
	// and degradation wait caused by the injected Config.Faults (the zero
	// value for a zero-fault replay).
	Faults FaultStats
}

// MaxLinkHighWater returns the largest buffered-pair peak across links.
func (r ReplayRun) MaxLinkHighWater() float64 {
	max := 0.0
	for _, l := range r.Links {
		if l.HighWater > max {
			max = l.HighWater
		}
	}
	return max
}

// Replay executes one circuit's dataflow graph across the configured mesh.
// On a 1-tile mesh every gate is local and the run reproduces the fluid-mode
// schedule.Replay bit for bit (same issue order, same token-bucket
// arithmetic) provided the config charges nothing schedule.Replay cannot
// model: Movement.BallisticPerGateUs zero and TileZeroRatePerMs equal to
// the supply rate.  Multi-tile meshes add routed teleports, link contention
// and per-tile ancilla accounting the single-region replay cannot express.
func Replay(c *quantum.Circuit, cfg Config) (ReplayRun, error) {
	return ReplayShared([]*quantum.Circuit{c}, cfg)
}

// netGate is the in-flight state of one dispatched cross-tile gate: its
// operand movements, the join counters for inbound and return teleports,
// and the times the joins resolve to.  Cross-tile gates in flight hold
// pooled slots in netState; the slot index rides on their events.
type netGate struct {
	fi, ci, gi int // flat index, circuit and gate
	moves      [][]Link
	inbound    int
	outbound   int
	arrival    float64
	execDone   float64
	retDone    float64
}

// teleState is one active routed operand movement.  Teleports are pooled by
// index in netState and step through their route via kernel events carrying
// that index.
type teleState struct {
	gate     int    // owning netGate slot
	route    []Link // cached route (read-only)
	hop      int
	link     int     // linkIdx of the current hop
	ret      bool    // return trip (fires the outbound join)
	hopReady float64 // when the current hop requested its EPR pair
}

// netState is the pooled per-run state of ReplayShared.  The sim.Dataflow
// issues gates and draws their zeros from per-tile fluid supplies; netState
// adds the mesh: routes, EPR-pair links and teleports, on events that name
// it by its handler ID on the run's kernel.  Payloads: 3·ts teleport ts
// granted its EPR pair, 3·ts+1 teleport ts arrived at the end of its hop,
// and 3·x+2 cross-tile gate x finished executing.
type netState struct {
	df     sim.Dataflow
	id     sim.HandlerID // netState on the run's kernel
	run    *ReplayRun
	cs     []*quantum.Circuit
	prices schedule.GatePrices
	topo   Topology

	rates   []float64 // per-tile zero supply rates (ancillae/us)
	bufs    []*sim.Resource
	prods   []*sim.Producer
	linkIdx map[Link]int
	routes  [][]Link // (from*tiles+to) -> cached route

	// Fault state.  Every fault is applied before the first event, so an
	// empty Config.Faults leaves these all false and FaultStats zero.
	linkDown     []bool // per linkIdx: the link is dead
	linkDegraded []bool // per linkIdx: the link runs at a reduced rate
	rerouted     []bool // per routes index: cached route deviates from dimension order
	fstats       FaultStats
	replayErr    error

	gates    []netGate
	gateFree []int32
	tele     []teleState
	teleFree []int32

	perQEC   int
	perGate  float64
	teleAnc  float64
	teleAncN int
	teleUs   float64
	ballUs   float64

	netBlocked []float64
	nTiles     int
}

var netStatePool = sync.Pool{New: func() any { return new(netState) }}

// Fire implements sim.Handler.
func (r *netState) Fire(idx int) {
	switch {
	case idx%3 == 0:
		r.teleGranted(idx / 3)
	case idx%3 == 1:
		r.tele[idx/3].hop++
		r.teleStep(idx / 3)
	default:
		r.launchReturns(idx / 3)
	}
}

// route returns the cached route between two tiles: the dimension-order
// route, or the fault-avoiding fallback (opposite dimension order, then a
// bounded BFS detour) when a dead link blocks it.  On a partitioned mesh it
// fails the replay and returns nil; callers must check replayErr before
// using the route.
func (r *netState) route(from, to int) []Link {
	i := from*r.nTiles + to
	if r.routes[i] == nil {
		rt, rer, err := r.topo.RouteAvoiding(from, to, r.linkIsDown)
		if err != nil {
			r.fail(err)
			return nil
		}
		r.routes[i], r.rerouted[i] = rt, rer
	}
	return r.routes[i]
}

// linkIsDown is the RouteAvoiding predicate over the per-replay link-status
// table.
func (r *netState) linkIsDown(l Link) bool { return r.linkDown[r.linkIdx[l]] }

// fail aborts the replay with the first error (a route found the mesh
// partitioned).
func (r *netState) fail(err error) {
	if r.replayErr == nil {
		r.replayErr = err
		r.df.Kernel().Stop()
	}
}

// noteSpawn accounts a teleport launched on a non-preferred route.
func (r *netState) noteSpawn(route []Link) {
	from, to := route[0].From, route[len(route)-1].To
	if r.rerouted[from*r.nTiles+to] {
		r.fstats.Reroutes++
		r.fstats.DetourHops += len(route) - r.topo.HopDistance(from, to)
	}
}

// spawnTele claims a pooled teleport state and starts its first hop.
func (r *netState) spawnTele(x int, route []Link, ret bool) {
	var ts int
	if n := len(r.teleFree); n > 0 {
		ts = int(r.teleFree[n-1])
		r.teleFree = r.teleFree[:n-1]
	} else {
		ts = len(r.tele)
		r.tele = append(r.tele, teleState{})
	}
	r.tele[ts] = teleState{gate: x, route: route, ret: ret}
	r.teleStep(ts)
}

// teleStep requests the current hop's EPR pair, or resolves the teleport
// when the route is exhausted.
func (r *netState) teleStep(ts int) {
	s := &r.tele[ts]
	now := float64(r.df.Kernel().Now())
	if s.hop == len(s.route) {
		x, ret := s.gate, s.ret
		r.teleFree = append(r.teleFree, int32(ts))
		if ret {
			r.returnArrived(x, now)
		} else {
			r.operandArrived(x, now)
		}
		return
	}
	s.hopReady = now
	s.link = r.linkIdx[s.route[s.hop]]
	r.bufs[s.link].AcquireFire(1, r.id, 3*ts)
}

// teleGranted fires when the hop's EPR pair is delivered: draw the teleport
// ancillae from the departing tile's zero supply, then transit.
func (r *netState) teleGranted(ts int) {
	s := &r.tele[ts]
	p := &r.gates[s.gate]
	res := &r.run.Results[p.ci]
	l := s.route[s.hop]
	granted := float64(r.df.Kernel().Now())
	r.netBlocked[p.ci] += granted - s.hopReady
	if r.linkDegraded[s.link] {
		r.fstats.DegradedWaitUs += granted - s.hopReady
	}
	depart := granted
	if r.teleAnc > 0 {
		depart = r.df.Draw(p.fi, l.From, r.teleAnc, granted)
	}
	res.TeleportAncillae += r.teleAncN
	res.AncillaeConsumed += r.teleAncN
	res.Hops++
	arrive := depart + r.teleUs
	r.netBlocked[p.ci] += arrive - depart
	r.df.Kernel().AtFire(iontrap.Microseconds(arrive), sim.PriorityNormal, r.id, 3*ts+1)
}

// execTile returns the tile a gate executes on: its last operand's.
func (r *netState) execTile(ci int, g quantum.Gate) int {
	return r.run.Partitions[ci].TileOf[g.Qubits[len(g.Qubits)-1]]
}

// cost returns a gate's latency past its QEC zeros: ballistic movement for
// multi-qubit gates, then the gate itself.  It also counts the zeros.
func (r *netState) cost(ci int, g quantum.Gate) (extra, weight float64) {
	r.run.Results[ci].AncillaeConsumed += r.perQEC
	if g.Kind.Arity() >= 2 {
		extra = r.ballUs
	}
	return extra, r.prices.SpeedOfData[g.Kind]
}

// Issue implements sim.Issuer.  A gate whose operands share its execution
// tile draws its zeros there and runs; a cross-tile gate first teleports
// each remote operand in.
func (r *netState) Issue(fi, ci, gi int, ready float64) {
	g := r.cs[ci].Gates[gi]
	part := r.run.Partitions[ci]
	exec := r.execTile(ci, g)
	cross := false
	for _, q := range g.Qubits[:len(g.Qubits)-1] {
		cross = cross || part.TileOf[q] != exec
	}
	if !cross {
		extra, weight := r.cost(ci, g)
		r.df.Acquire(fi, exec, r.perGate, ready, extra, weight)
		return
	}
	x := len(r.gates)
	if n := len(r.gateFree); n > 0 {
		x, r.gateFree = int(r.gateFree[n-1]), r.gateFree[:n-1]
	} else {
		// Re-expose a slot from an earlier run, keeping its moves' capacity.
		r.gates = slices.Grow(r.gates, 1)[:x+1]
	}
	p := &r.gates[x]
	*p = netGate{fi: fi, ci: ci, gi: gi, moves: p.moves[:0], arrival: ready}
	for _, q := range g.Qubits[:len(g.Qubits)-1] {
		if from := part.TileOf[q]; from != exec {
			p.moves = append(p.moves, r.route(from, exec))
		}
	}
	if r.replayErr != nil {
		return
	}
	res := &r.run.Results[ci]
	p.inbound = len(p.moves)
	for _, route := range p.moves {
		res.Teleports++
		res.HopHistogram[len(route)]++
		r.noteSpawn(route)
		r.spawnTele(x, route, false)
	}
}

// operandArrived joins one inbound teleport; the last arrival executes the
// gate and schedules the return trips at its completion.
func (r *netState) operandArrived(x int, arrive float64) {
	p := &r.gates[x]
	if arrive > p.arrival {
		p.arrival = arrive
	}
	p.inbound--
	if p.inbound > 0 {
		return
	}
	g := r.cs[p.ci].Gates[p.gi]
	extra, weight := r.cost(p.ci, g)
	p.execDone = r.df.Draw(p.fi, r.execTile(p.ci, g), r.perGate, p.arrival) + extra + weight
	// Return the moved operands home; the gate completes (and unblocks its
	// successors) once placement is restored, the same to-and-back
	// convention the microarch teleport accounting uses.
	r.df.Kernel().AtFire(iontrap.Microseconds(p.execDone), sim.PriorityNormal, r.id, 3*x+2)
}

// launchReturns fires at a cross-tile gate's execution completion and sends
// every moved operand back.
func (r *netState) launchReturns(x int) {
	p := &r.gates[x]
	res := &r.run.Results[p.ci]
	p.outbound = len(p.moves)
	p.retDone = p.execDone
	for _, route := range p.moves {
		back := r.route(route[len(route)-1].To, route[0].From)
		if r.replayErr != nil {
			return
		}
		res.Teleports++
		res.HopHistogram[len(back)]++
		r.noteSpawn(back)
		r.spawnTele(x, back, true)
	}
}

// returnArrived joins one return teleport; the last one finishes the gate
// and frees its slot.
func (r *netState) returnArrived(x int, arrive float64) {
	p := &r.gates[x]
	if arrive > p.retDone {
		p.retDone = arrive
	}
	p.outbound--
	if p.outbound == 0 {
		r.df.Finish(p.fi, p.retDone)
		r.gateFree = append(r.gateFree, int32(x))
	}
}

// ReplayShared co-schedules several circuits on one mesh — the network
// contention scenario: each circuit is partitioned across the same tiles,
// and all of them compete for the same links and the same per-tile zero
// factories.  Gates issue in first-come-first-served order of data readiness
// (ties broken by circuit, then gate index), exactly like
// schedule.ReplayShared.
func ReplayShared(cs []*quantum.Circuit, cfg Config) (ReplayRun, error) {
	if err := cfg.Validate(); err != nil {
		return ReplayRun{}, err
	}
	if len(cs) == 0 {
		return ReplayRun{}, fmt.Errorf("network: no circuits to replay")
	}
	m := cfg.Latency
	prices := m.Prices()
	topo := NewTopology(len(cfg.Machine.Tiles))
	nTiles := topo.TileCount()
	maxDist := topo.Cols + topo.Rows - 1
	if len(cfg.Faults) > 0 && nTiles > maxDist {
		// Detours may be longer than any Manhattan distance; a BFS route
		// is still bounded by the tile count.  Zero-fault histograms keep
		// their original size, preserving byte identity.
		maxDist = nTiles
	}

	run := ReplayRun{
		Topology:   topo,
		Results:    make([]ReplayResult, len(cs)),
		Partitions: make([]Partition, len(cs)),
	}
	if len(cfg.Partitions) > 0 && len(cfg.Partitions) != len(cs) {
		return ReplayRun{}, fmt.Errorf("network: %d pinned partitions for %d circuits", len(cfg.Partitions), len(cs))
	}
	total := 0
	for ci, c := range cs {
		if err := c.Validate(); err != nil {
			return ReplayRun{}, err
		}
		total += len(c.Gates)
		var part Partition
		if len(cfg.Partitions) > 0 {
			part = cfg.Partitions[ci]
			if part.Tiles != nTiles || len(part.TileOf) != c.NumQubits {
				return ReplayRun{}, fmt.Errorf("network: pinned partition %d covers %d qubits on %d tiles, want %d on %d",
					ci, len(part.TileOf), part.Tiles, c.NumQubits, nTiles)
			}
		} else {
			var err error
			if part, err = PartitionCircuit(c, nTiles); err != nil {
				return ReplayRun{}, err
			}
		}
		run.Partitions[ci] = part
		run.Results[ci] = ReplayResult{
			ReplayResult: schedule.NewReplayResult(c, m, &prices),
			CrossGates:   part.CrossGates,
			HopHistogram: make([]int, maxDist),
		}
	}
	if total == 0 {
		return run, nil
	}

	r := netStatePool.Get().(*netState)
	defer func() {
		r.cs, r.run = nil, nil
		netStatePool.Put(r)
	}()
	r.run, r.cs, r.prices, r.topo, r.nTiles = &run, cs, prices, topo, nTiles
	r.perQEC, r.perGate = m.ZeroAncillaePerQEC, float64(m.ZeroAncillaePerQEC)
	r.teleAncN = cfg.Machine.Movement.TeleportAncillae
	r.teleAnc = float64(r.teleAncN)
	r.teleUs = float64(cfg.Machine.Movement.TeleportUs)
	r.ballUs = float64(cfg.Machine.Movement.BallisticPerGateUs)
	r.fstats, r.replayErr = FaultStats{}, nil
	r.netBlocked = append(r.netBlocked[:0], make([]float64, len(cs))...)
	r.routes = append(r.routes[:0], make([][]Link, nTiles*nTiles)...)
	r.rerouted = append(r.rerouted[:0], make([]bool, nTiles*nTiles)...)
	r.gates, r.gateFree = r.gates[:0], r.gateFree[:0]
	r.tele, r.teleFree = r.tele[:0], r.teleFree[:0]

	r.df.Reset(r, cs...)
	defer r.df.Release()
	k := r.df.Kernel()
	r.id = k.Handle(r)
	// Per-tile zero supplies are fluid token buckets (the same arithmetic
	// schedule.Replay uses), fed by the tile's own factories.
	r.rates = r.rates[:0]
	for i := 0; i < nTiles; i++ {
		r.rates = append(r.rates, cfg.tileRatePerMs(i)/1000.0)
	}
	if err := r.df.Sources(0, "tile zero supply", r.rates...); err != nil {
		return ReplayRun{}, err
	}
	// Each directed link is a finite EPR-pair channel behind a rate-matched
	// generator.  Channels and generators are pooled across runs.
	links := topo.Links()
	if r.linkIdx == nil {
		r.linkIdx = make(map[Link]int, len(links))
	} else {
		clear(r.linkIdx)
	}
	linkRatePerUs := cfg.linkRatePerMs() / 1000.0
	r.linkDown = append(r.linkDown[:0], make([]bool, len(links))...)
	r.linkDegraded = append(r.linkDegraded[:0], make([]bool, len(links))...)
	for i, l := range links {
		r.linkIdx[l] = i
		rate, dead := linkRatePerUs, false
		// The plan shapes the link before the run starts.  A dead entry
		// wins over every degradation of the link in either order; among
		// degradations the last factor wins.
		for _, f := range cfg.Faults {
			if f.Link != l {
				continue
			}
			if f.Dead {
				dead = true
			} else {
				rate = linkRatePerUs * f.RateFactor
			}
		}
		if dead {
			r.linkDown[i] = true
			r.fstats.FailedLinks++
		} else if rate != linkRatePerUs {
			r.linkDegraded[i] = true
			r.fstats.DegradedLinks++
		}
		if i == len(r.bufs) {
			r.bufs = append(r.bufs, new(sim.Resource))
			r.prods = append(r.prods, new(sim.Producer))
		}
		name := "EPR link " + l.String()
		r.bufs[i].Reset(k, name, cfg.LinkBufferPairs)
		if err := r.prods[i].Reset(k, name, r.bufs[i], rate); err != nil {
			return ReplayRun{}, err
		}
		// A statically dead link's generator never starts: the channel
		// stays empty and every route avoids it from the first dispatch.
		if !dead {
			r.prods[i].Start()
		}
	}

	stats, err := r.df.Run()
	if r.replayErr != nil {
		obsRecordReplay(r.fstats, errors.Is(r.replayErr, ErrPartitioned))
		return ReplayRun{}, r.replayErr
	}
	if err != nil {
		return ReplayRun{}, fmt.Errorf("network: %w", err)
	}
	for ci := range cs {
		run.Results[ci].ExecutionTime = iontrap.Microseconds(r.df.CircuitMakespan(ci))
		run.Results[ci].AncillaWait = iontrap.Microseconds(r.df.Wait(ci))
		run.Results[ci].NetworkBlocked = iontrap.Microseconds(r.netBlocked[ci])
	}
	run.Makespan = iontrap.Microseconds(r.df.Makespan())
	run.Events = stats.Events
	run.Faults = r.fstats
	obsRecordReplay(r.fstats, false)
	run.Links = make([]LinkStat, len(links))
	for i, l := range links {
		run.Links[i] = LinkStat{
			Link:          l,
			PairsConsumed: r.bufs[i].Consumed(),
			HighWater:     r.bufs[i].HighWater(),
			ProducerStall: r.prods[i].StallTime(),
		}
	}
	return run, nil
}
