package microarch

import (
	"fmt"
	"sync"

	"speedofdata/internal/iontrap"
	"speedofdata/internal/quantum"
	"speedofdata/internal/sim"
)

// simulateEvents is the event-driven core behind Simulate: the circuit's
// dataflow graph replays on a sim.Dataflow, which issues ready gates in
// (readiness, gate index) order — the closed form's order, so with infinite
// buffers (fluid sources) the two models perform identical arithmetic and
// produce bit-identical results.  This layer adds the architecture's cost
// model and its ancilla sources, one per site: with cfg.BufferAncillae > 0
// each is a finite buffer fed by a rate-matched producer, so gates stall
// until their demand is delivered and producers stall when the buffer fills,
// the dynamics the closed form cannot express.
//
// The run state is pooled across runs; sweeps call Simulate thousands of
// times and the steady state allocates a constant handful per run (see
// TestSimulateEventsSteadyStateAllocations).

// eventRun is the pooled per-run state.
type eventRun struct {
	df    sim.Dataflow
	c     *quantum.Circuit
	cfg   Config
	model *costModel
}

var eventRunPool = sync.Pool{New: func() any { return new(eventRun) }}

// Issue implements sim.Issuer: price the gate on the architecture, then draw
// its ancillae from its site's source.
func (r *eventRun) Issue(fi, _, _ int, ready float64) {
	g := r.c.Gates[fi]
	site, extraLatency, ancillae := r.model.dispatch(g)
	r.df.Acquire(fi, site, ancillae, ready, extraLatency, float64(r.cfg.Latency.GateWeightSpeedOfData(g)))
}

func simulateEvents(c *quantum.Circuit, cfg Config) (Result, error) {
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
	r.c, r.cfg, r.model = c, cfg, newCostModel(cfg, &res)
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
