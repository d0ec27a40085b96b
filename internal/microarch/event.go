package microarch

import (
	"fmt"
	"sync"

	"speedofdata/internal/iontrap"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
	"speedofdata/internal/sim"
)

// eventRun is the pooled per-run state.
type eventRun struct {
	df     sim.Dataflow
	c      *quantum.Circuit
	prices schedule.GatePrices
	model  *costModel
}

var eventRunPool = sync.Pool{New: func() any { return new(eventRun) }}

// Issue implements sim.Issuer: price the gate on the architecture, then draw
// its ancillae from its site's source.
func (r *eventRun) Issue(fi, _, _ int, ready float64) {
	g := r.c.Gates[fi]
	site, extraLatency, ancillae := r.model.dispatch(g)
	r.df.Acquire(fi, site, ancillae, ready, extraLatency, r.prices.SpeedOfData[g.Kind])
}

// Simulate runs the dataflow simulation of a logical circuit on the selected
// microarchitecture.  Gates issue in first-come-first-served order of data
// readiness (ties broken by gate index); each gate waits for its operands,
// for any required data movement (ballistic, teleportation, or cache
// fetch/writeback), and for the encoded ancillae its QEC step and teleports
// consume, drawn from the architecture's generator sources, one per site.
//
// The circuit's dataflow graph replays on a sim.Dataflow, which issues in
// sim.ListSchedule's order, the closed form's.  Simulate honours
// cfg.BufferAncillae: zero buffers the generators infinitely (fluid sources,
// the paper's closed-form token-bucket model, reproduced bit for bit — see
// SimulateClosedForm); a positive capacity makes each source a finite buffer
// fed by a rate-matched producer, so gates stall until their demand is
// delivered and producers stall when the buffer fills, the dynamics the
// closed form cannot express.
//
// The run state is pooled across runs; sweeps call Simulate thousands of
// times and the steady state allocates a constant handful per run (see
// TestSimulateEventsSteadyStateAllocations).
func Simulate(c *quantum.Circuit, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{Arch: cfg.Arch, AncillaFactoryArea: cfg.AncillaFactoryArea(c.NumQubits)}
	if len(c.Gates) == 0 {
		return res, nil
	}

	rates, err := sourceRates(cfg, c.NumQubits)
	if err != nil {
		return Result{}, err
	}

	r := eventRunPool.Get().(*eventRun)
	defer func() {
		r.c, r.model = nil, nil
		eventRunPool.Put(r)
	}()
	r.c, r.prices, r.model = c, cfg.Latency.Prices(), newCostModel(cfg, c.NumQubits, &res)
	r.df.Reset(r, c)
	defer r.df.Release()
	if err := r.df.Sources(cfg.BufferAncillae, "ancilla source", rates...); err != nil {
		return Result{}, err
	}
	stats, err := r.df.Run()
	if err != nil {
		return Result{}, fmt.Errorf("microarch: %q: %w", c.Name, err)
	}
	res.ExecutionTime = iontrap.Microseconds(r.df.Makespan())
	res.AncillaStallTime = iontrap.Microseconds(r.df.Wait(0))
	res.BufferHighWater = r.df.BufferHighWater()
	res.ProducerStallTime = r.df.ProducerStall()
	res.Events = stats.Events
	return res, nil
}
