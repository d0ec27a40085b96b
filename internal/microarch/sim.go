package microarch

import (
	"fmt"
	"math"

	"speedofdata/internal/iontrap"
	"speedofdata/internal/quantum"
	"speedofdata/internal/sim"
)

// Result summarises one simulation run.
type Result struct {
	Arch Architecture
	// ExecutionTime is the simulated makespan.
	ExecutionTime iontrap.Microseconds
	// AncillaFactoryArea is the ancilla-generation area of the configuration
	// (Figure 15's x axis).
	AncillaFactoryArea iontrap.Area
	// Teleports counts encoded-qubit teleportations performed.
	Teleports int
	// CacheMisses counts compute-cache misses (CQLA/GCQLA only).
	CacheMisses int
	// AncillaeConsumed counts encoded zero ancillae drawn from generators.
	AncillaeConsumed int

	// AncillaStallTime is the total time gates spent waiting on encoded
	// ancilla availability beyond data readiness, summed over gates.
	AncillaStallTime iontrap.Microseconds
	// BufferHighWater is the peak buffered ancilla level across the
	// configuration's sources (finite-buffer event-driven runs only; the
	// fluid infinite-buffer model has no buffer to measure).
	BufferHighWater float64
	// ProducerStallTime is the total time ancilla producers spent blocked on
	// full buffers, summed over sources (finite-buffer runs only).
	ProducerStallTime iontrap.Microseconds
	// Events is the number of kernel events the event-driven simulator
	// processed (zero for the closed form).
	Events int
}

// ExecutionTimeMs is the makespan in milliseconds.
func (r Result) ExecutionTimeMs() float64 { return r.ExecutionTime.Milliseconds() }

// lruCache is the CQLA compute cache: a fixed number of data-qubit slots with
// least-recently-used replacement.  Slots live in an array, and slot[q]
// indexes qubit q's slot, so a hit is one lookup and a miss scans at most
// the capacity's stamps.  Stamps are unique, so the victim is always the
// one qubit touched longest ago.
type lruCache struct {
	stamp int64
	slots []lruSlot // resident qubits, at most the capacity
	slot  []int32   // qubit -> its index in slots plus one; zero when absent
}

// lruSlot is one resident qubit and the stamp of its last use.
type lruSlot struct {
	q     int
	stamp int64
}

// newLRUCache returns an empty cache of capacity slots over qubits
// [0, nQubits).  It never holds more than nQubits qubits, so it sizes its
// slot array by the smaller of the two.
func newLRUCache(capacity, nQubits int) *lruCache {
	return &lruCache{slots: make([]lruSlot, 0, min(capacity, nQubits)), slot: make([]int32, nQubits)}
}

// touch marks a qubit as resident and most recently used, reporting whether
// the access missed and which qubit (if any) the miss evicted (-1 for none).
func (c *lruCache) touch(q int) (miss bool, evicted int) {
	c.stamp++
	evicted = -1
	if s := c.slot[q]; s > 0 {
		c.slots[s-1].stamp = c.stamp
		return false, evicted
	}
	s := len(c.slots)
	if s < cap(c.slots) {
		c.slots = c.slots[:s+1]
	} else {
		s = 0
		for i := range c.slots {
			if c.slots[i].stamp < c.slots[s].stamp {
				s = i
			}
		}
		evicted = c.slots[s].q
		c.slot[evicted] = 0
	}
	c.slots[s] = lruSlot{q, c.stamp}
	c.slot[q] = int32(s + 1)
	return true, evicted
}

// sourceRates returns the per-source ancilla production rate (ancillae per
// microsecond) for the configuration: one source per data qubit for QLA and
// GQLA, a single shared source for the cache- and factory-based
// organisations.  A non-positive rate — nothing would ever be produced — is
// reported as sim.ErrZeroRate instead of letting +Inf availability times
// propagate into results.
func sourceRates(cfg Config, nQubits int) ([]float64, error) {
	perQubitRate := cfg.generatorRatePerMs() / 1000.0 * float64(cfg.GeneratorsPerQubit)
	var rates []float64
	switch cfg.Arch {
	case QLA, GQLA:
		rates = make([]float64, nQubits)
		for i := range rates {
			rates[i] = perQubitRate
		}
	case CQLA, GCQLA:
		rates = []float64{perQubitRate * float64(cfg.CacheSlots)}
	case FullyMultiplexed:
		rates = []float64{cfg.sharedFactoryRatePerMs() / 1000.0 * float64(cfg.SharedFactories)}
	}
	for _, r := range rates {
		if !(r > 0) {
			return nil, fmt.Errorf("microarch: %v ancilla generation rate %v/µs: %w", cfg.Arch, r, sim.ErrZeroRate)
		}
	}
	return rates, nil
}

// costModel computes the per-gate movement latency and ancilla demand for an
// architecture, mutating the compute-cache state and the result counters as
// gates dispatch.  Both the closed-form and the event-driven simulators call
// it with gates in the same order, which keeps their arithmetic — and
// therefore their results — identical.  Every teleport pays the flat
// single-hop cost of the movement model; routed multi-hop teleportation
// across tiles is internal/network's subject.
type costModel struct {
	cfg   Config
	cache *lruCache
	res   *Result

	perQEC       float64
	teleportCost float64
	teleportUs   float64
	ballisticUs  float64
}

func newCostModel(cfg Config, nQubits int, res *Result) *costModel {
	m := &costModel{
		cfg:          cfg,
		res:          res,
		perQEC:       float64(cfg.Latency.ZeroAncillaePerQEC),
		teleportCost: float64(cfg.Movement.TeleportAncillae),
		teleportUs:   float64(cfg.Movement.TeleportUs),
		ballisticUs:  float64(cfg.Movement.BallisticPerGateUs),
	}
	if cfg.Arch == CQLA || cfg.Arch == GCQLA {
		m.cache = newLRUCache(cfg.CacheSlots, nQubits)
	}
	return m
}

// dispatch accounts one gate: the source it draws ancillae from, the extra
// movement latency, and the encoded ancillae consumed.  It must be called in
// issue order (the cache state is order-sensitive).
func (m *costModel) dispatch(g quantum.Gate) (site int, extraLatency, ancillae float64) {
	ancillae = m.perQEC
	switch m.cfg.Arch {
	case QLA, GQLA:
		// Two-qubit gates teleport the first operand to the second's home
		// cell and back; QEC and teleport ancillae come from the execution
		// site's dedicated generator.
		site = g.Qubits[len(g.Qubits)-1]
		if g.Kind.Arity() >= 2 {
			extraLatency += 2 * m.teleportUs
			ancillae += 2 * m.teleportCost
			m.res.Teleports += 2
		}
	case CQLA, GCQLA:
		// Every operand must be resident in the compute cache; misses cost a
		// fetch teleport (plus a writeback teleport when a slot must be
		// evicted) and the associated ancillae.
		for _, q := range g.Qubits {
			miss, evicted := m.cache.touch(q)
			if miss {
				m.res.CacheMisses++
				extraLatency += m.teleportUs
				ancillae += m.teleportCost
				m.res.Teleports++
				if evicted >= 0 {
					extraLatency += m.teleportUs
					ancillae += m.teleportCost
					m.res.Teleports++
				}
			}
		}
		if g.Kind.Arity() >= 2 {
			extraLatency += m.ballisticUs
		}
	case FullyMultiplexed:
		// Encoded ancillae are distributed from the shared factories to
		// wherever they are needed; data moves ballistically inside its
		// dense region.
		if g.Kind.Arity() >= 2 {
			extraLatency += m.ballisticUs
		}
	}
	m.res.AncillaeConsumed += int(math.Round(ancillae))
	return site, extraLatency, ancillae
}

// SimulateClosedForm is the original analytical model: list scheduling
// against infinitely buffered token-bucket ancilla sources, with no event
// kernel.  It is retained as the parity oracle for the event-driven
// simulator — with infinite buffers the two produce bit-identical results —
// and errors out on configurations it cannot model (finite buffers).
func SimulateClosedForm(c *quantum.Circuit, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.BufferAncillae > 0 {
		return Result{}, fmt.Errorf("microarch: the closed form cannot model a finite ancilla buffer (%v); use Simulate", cfg.BufferAncillae)
	}
	res := Result{Arch: cfg.Arch, AncillaFactoryArea: cfg.AncillaFactoryArea(c.NumQubits)}
	if len(c.Gates) == 0 {
		return res, nil
	}

	rates, err := sourceRates(cfg, c.NumQubits)
	if err != nil {
		return Result{}, err
	}
	// The analytical ancilla model is sim.FluidSource's token bucket: the
	// same accumulate-then-divide arithmetic the event-driven path uses in
	// fluid mode, which is what keeps the two bit-identical.
	pools := make([]sim.FluidSource, len(rates))
	for i, r := range rates {
		if err := pools[i].Reset(r); err != nil {
			return Result{}, err
		}
	}
	model := newCostModel(cfg, c.NumQubits, &res)
	weight := cfg.Latency.Prices().SpeedOfData
	stall := 0.0
	makespan := sim.ListSchedule(c, func(gi int, ready float64) float64 {
		g := c.Gates[gi]
		site, extraLatency, ancillae := model.dispatch(g)
		issue := ready
		if t := pools[site].AvailableAt(ancillae); t > issue {
			issue = t
		}
		stall += issue - ready
		return issue + extraLatency + weight[g.Kind]
	})
	res.ExecutionTime = iontrap.Microseconds(makespan)
	res.AncillaStallTime = iontrap.Microseconds(stall)
	return res, nil
}
