package factory

import (
	"fmt"

	"speedofdata/internal/iontrap"
	"speedofdata/internal/sim"
)

// This file is the event-driven view of a pipelined factory Design: every
// functional-unit allocation becomes a stage process on the discrete-event
// kernel, emitting completions at its OpsPerMs cadence (success-rate
// discards scale the output flow), consuming physical qubits from the
// previous stage's crossbar buffer and depositing into its own.  Where the
// bandwidth-matching arithmetic of Section 4.4 sizes the pipeline in the
// steady state, the simulation exposes the transient behaviour: pipeline
// fill, stages starving on undersized neighbours, and back-pressure through
// finite crossbar buffers.

// StageStats reports one functional-unit group's behaviour during an
// event-driven factory run.
type StageStats struct {
	// Stage and Unit name the pipeline stage and the functional unit.
	Stage string
	Unit  string
	// Count is the unit replica count (the Table 6 / Table 8 allocation).
	Count int
	// Ops is the number of completed operations across the replicas.
	Ops int
	// StarveMs is time spent waiting on input qubits from the upstream
	// buffer; StallMs is time blocked on a full downstream buffer.
	StarveMs float64
	StallMs  float64
	// BusyFrac is the fraction of the horizon the group was neither
	// starving nor stalled.
	BusyFrac float64
}

// PipelineRun is a completed event-driven factory simulation.
type PipelineRun struct {
	// Name is the design's name.
	Name string
	// HorizonMs is the simulated duration.
	HorizonMs float64
	// BufferQubits is the inter-stage (crossbar) buffer capacity used, in
	// physical qubits; zero means unbounded.
	BufferQubits float64
	// MeasuredPerMs is the encoded-ancilla output rate the simulation
	// delivered; AnalyticPerMs is the closed-form ThroughputPerMs it should
	// converge to once the pipeline fills.
	MeasuredPerMs float64
	AnalyticPerMs float64
	// OutputAncillae is the total encoded ancillae delivered.
	OutputAncillae int
	// Stages holds per-unit-group statistics in pipeline order.
	Stages []StageStats
	// Events is the number of kernel events processed.
	Events int
}

// unitProc is one functional-unit group executing on the kernel.
type unitProc struct {
	k         *sim.Kernel
	id        sim.HandlerID // the proc on k
	stats     *StageStats
	in        *sim.Resource // nil: unlimited physical supply (first stage)
	out       *sim.Resource
	interval  iontrap.Microseconds // aggregated completion cadence
	latency   iontrap.Microseconds // pipeline-fill delay of the first op
	qubitsIn  float64
	qubitsOut float64 // success-rate scaled
	held      float64
	first     bool

	// starving/stalled mark a wait in progress since blockedAt, so a run
	// that ends mid-wait can account the trailing segment.
	starving  bool
	stalled   bool
	blockedAt iontrap.Microseconds
}

// unitProc event payloads for its sim.Handler: every stage event schedules
// the proc itself with a phase instead of a bound-method closure.
const (
	procStart = iota
	procAcquired
	procComplete
	procFlush
)

// Fire implements sim.Handler.
func (u *unitProc) Fire(idx int) {
	switch idx {
	case procStart:
		u.request()
	case procAcquired:
		u.starving = false
		u.stats.StarveMs += (u.k.Now() - u.blockedAt).Milliseconds()
		u.work()
	case procComplete:
		u.complete()
	case procFlush:
		u.flush()
	}
}

// horizon is the event that ends a pipeline run.
type horizon struct{ k *sim.Kernel }

// Fire implements sim.Handler.
func (h horizon) Fire(int) { h.k.Stop() }

func (u *unitProc) start() { u.k.AtFire(0, sim.PriorityNormal, u.id, procStart) }

// request begins one operation by acquiring the input qubits.
func (u *unitProc) request() {
	if u.in == nil {
		u.work()
		return
	}
	u.starving = true
	u.blockedAt = u.k.Now()
	u.in.AcquireFire(u.qubitsIn, u.id, procAcquired)
}

// work runs the operation itself: the pipeline-fill latency for the first
// product, the steady cadence afterwards.
func (u *unitProc) work() {
	d := u.interval
	if u.first {
		u.first = false
		if u.latency > d {
			d = u.latency
		}
	}
	u.k.AfterFire(d, sim.PriorityNormal, u.id, procComplete)
}

// complete deposits the product, stalling on a full downstream buffer.
func (u *unitProc) complete() {
	u.stats.Ops++
	u.held += u.qubitsOut
	u.flush()
}

func (u *unitProc) flush() {
	u.held -= u.out.Put(u.held)
	if u.held > 1e-9 {
		if !u.stalled {
			u.stalled = true
			u.blockedAt = u.k.Now()
		}
		u.out.OnSpaceFire(u.id, procFlush)
		return
	}
	u.held = 0
	if u.stalled {
		u.stalled = false
		u.stats.StallMs += (u.k.Now() - u.blockedAt).Milliseconds()
	}
	u.request()
}

// finish accounts a wait still in progress when the run's horizon ends.
func (u *unitProc) finish(end iontrap.Microseconds) {
	if u.starving {
		u.stats.StarveMs += (end - u.blockedAt).Milliseconds()
	}
	if u.stalled {
		u.stats.StallMs += (end - u.blockedAt).Milliseconds()
	}
}

// SimulatePipeline runs a factory design's pipeline on the discrete-event
// kernel for horizonMs milliseconds with the given inter-stage buffer
// capacity (physical qubits; zero = unbounded) and reports the measured
// throughput against the bandwidth-matching prediction, plus per-stage
// starve/stall behaviour.
func SimulatePipeline(d Design, horizonMs, bufferQubits float64) (PipelineRun, error) {
	if err := d.Validate(); err != nil {
		return PipelineRun{}, err
	}
	if horizonMs <= 0 {
		return PipelineRun{}, fmt.Errorf("factory: non-positive simulation horizon %v ms", horizonMs)
	}
	if bufferQubits < 0 {
		return PipelineRun{}, fmt.Errorf("factory: negative buffer capacity %v", bufferQubits)
	}

	run := PipelineRun{
		Name:          d.Name,
		HorizonMs:     horizonMs,
		BufferQubits:  bufferQubits,
		AnalyticPerMs: d.ThroughputPerMs,
	}
	k := sim.AcquireKernel()
	defer k.Release()

	// One buffer after each stage; the last collects the factory's output
	// and is unbounded so throughput is demand-unconstrained.
	buffers := make([]*sim.Resource, len(d.Stages))
	for i, s := range d.Stages {
		capacity := bufferQubits
		if i == len(d.Stages)-1 {
			capacity = 0
		}
		buffers[i] = sim.NewResource(k, s.Name, capacity)
	}

	nAlloc := 0
	for _, s := range d.Stages {
		nAlloc += len(s.Allocations)
	}
	run.Stages = make([]StageStats, 0, nAlloc)

	var procs []*unitProc
	lastOutputs := 0 // unit groups whose ops count as factory output
	for si, s := range d.Stages {
		for _, a := range s.Allocations {
			ops := a.Unit.OpsPerMs(d.Tech) * float64(a.Count)
			if !(ops > 0) {
				return PipelineRun{}, fmt.Errorf("factory: unit %q rate %v ops/ms: %w", a.Unit.Name, ops, sim.ErrZeroRate)
			}
			run.Stages = append(run.Stages, StageStats{Stage: s.Name, Unit: a.Unit.Name, Count: a.Count})
			stats := &run.Stages[len(run.Stages)-1]
			var in *sim.Resource
			// The crossbar only carries the previous stage's product; a
			// unit's ExternalIn qubits (the π/8 transversal stage's encoded
			// zero, fed from a zero factory) arrive from outside the
			// pipeline, which the simulation treats as abundant.
			qubitsIn := float64(a.Unit.QubitsIn - a.Unit.ExternalIn)
			if si > 0 {
				in = buffers[si-1]
			}
			p := &unitProc{
				k:         k,
				stats:     stats,
				in:        in,
				out:       buffers[si],
				interval:  iontrap.Microseconds(1000.0 / ops),
				latency:   a.Unit.LatencyUs(d.Tech),
				qubitsIn:  qubitsIn,
				qubitsOut: float64(a.Unit.QubitsOut) * a.Unit.successRate(),
				first:     true,
			}
			p.id = k.Handle(p)
			procs = append(procs, p)
			if si == len(d.Stages)-1 {
				lastOutputs++
			}
		}
	}

	for _, p := range procs {
		p.start()
	}
	k.AtFire(iontrap.Microseconds(horizonMs*1000.0), sim.PriorityLate, k.Handle(horizon{k}), 0)
	stats := k.Run()
	for _, p := range procs {
		p.finish(k.Now())
	}

	run.Events = stats.Events
	// The factory's output is the completed operations of every unit group
	// in the final stage (current designs end in one group, but the sum is
	// correct for any Design).
	for _, st := range run.Stages[len(run.Stages)-lastOutputs:] {
		run.OutputAncillae += st.Ops
	}
	run.MeasuredPerMs = float64(run.OutputAncillae) / horizonMs
	for i := range run.Stages {
		st := &run.Stages[i]
		st.BusyFrac = 1 - (st.StarveMs+st.StallMs)/horizonMs
		if st.BusyFrac < 0 {
			st.BusyFrac = 0
		}
	}
	return run, nil
}
