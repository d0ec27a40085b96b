package main

import (
	"sort"
	"time"

	"speedofdata/internal/network"
	"speedofdata/internal/noise"
	"speedofdata/internal/obs"
	"speedofdata/internal/sim"
)

// jobKinds are the engine job kinds (the first segment of a job key) the
// workloads run.  Top-level jobs are experiments; their self time is the
// experiment's own code outside nested jobs and is reported as "experiment".
var jobKinds = []string{
	"experiment",
	"circuits.generate",
	"core.analyze", "core.contention", "core.factorysim", "core.figure4", "core.figure7",
	"core.figure8", "core.netcontention", "core.shor",
	"fowler.cascade", "fowler.search",
	"microarch.buffersweep", "microarch.simulate",
	"network.degrade", "network.faultsweep", "network.sweep",
	"noise.mc",
	"schedule.characterize", "schedule.throughput",
}

// spanStats sums what finished traces say about where time went.
type spanStats struct {
	traces int
	// self is each job kind's self time: its spans' durations minus the part
	// their child spans cover.
	self map[string]time.Duration
	// experiments is the total duration of each experiment's top-level span.
	experiments map[string]time.Duration
	// rootSelf and rootTotal are the root spans' self time and duration: for a
	// server trace, the request time outside any engine job.
	rootSelf, rootTotal time.Duration
	dropped             int64
}

func newSpanStats() *spanStats {
	return &spanStats{self: map[string]time.Duration{}, experiments: map[string]time.Duration{}}
}

// add folds one finished trace in.
func (st *spanStats) add(tr *obs.Trace) {
	spans := tr.Spans()
	children := map[int64][]*obs.Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	root := tr.Root()
	for _, s := range spans {
		self := s.Duration() - covered(s, children[s.ID])
		switch {
		case s == root:
			st.rootSelf += self
			st.rootTotal += s.Duration()
		case s.Parent == root.ID:
			st.self["experiment"] += self
			st.experiments[s.Name] += s.Duration()
		default:
			st.self[s.Name] += self
		}
	}
	st.traces++
	st.dropped += tr.Dropped()
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent *obs.Span, children []*obs.Span) time.Duration {
	if parent.End.IsZero() || len(children) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		if c.End.IsZero() {
			continue
		}
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// selfTotal sums the self time of every job kind.
func (st *spanStats) selfTotal() time.Duration {
	var t time.Duration
	for _, d := range st.self {
		t += d
	}
	return t
}

// perOp writes the per-trace averages as engine.self_ms.<kind> and
// core.experiment_ms.<id> metrics, over every kind and id a workload can run
// so each run prints the same names.
func (st *spanStats) perOp(m map[string]float64) {
	n := float64(max(st.traces, 1))
	for _, k := range jobKinds {
		m["engine.self_ms."+k] = ms(st.self[k]) / n
	}
	for _, id := range allExperimentIDs() {
		m["core.experiment_ms."+id] = ms(st.experiments[id]) / n
	}
	m["obs.dropped_spans"] = float64(st.dropped)
}

// layerCounters reads the program's own counters through the metrics
// registry: the kernel, Monte Carlo and interconnect layers keep them in
// process-wide atomics that Instrument exposes.
type layerCounters struct{ reg *obs.Registry }

func newLayerCounters() layerCounters {
	reg := obs.NewRegistry()
	sim.Instrument(reg)
	noise.Instrument(reg)
	network.Instrument(reg)
	return layerCounters{reg}
}

// counts is a reading of the counters the per-op metrics come from.
type counts struct {
	events, acquires, kernelAllocs, trials, reroutes, engineJobs float64
}

func (lc layerCounters) read() counts {
	v := map[string]float64{}
	for _, f := range lc.reg.TakeSnapshot().Families {
		for _, s := range f.Series {
			if s.Value != nil {
				v[f.Name] += *s.Value
			}
		}
	}
	return counts{
		events:       v["qsd_sim_events_total"],
		acquires:     v["qsd_sim_kernel_acquires_total"],
		kernelAllocs: v["qsd_sim_kernel_allocs_total"],
		trials:       v["qsd_noise_trials_total"],
		reroutes:     v["qsd_network_reroutes_total"],
		engineJobs:   v["qsd_engine_jobs_total"],
	}
}

func (c counts) minus(o counts) counts {
	return counts{c.events - o.events, c.acquires - o.acquires, c.kernelAllocs - o.kernelAllocs,
		c.trials - o.trials, c.reroutes - o.reroutes, c.engineJobs - o.engineJobs}
}

func (c counts) plus(o counts) counts {
	return counts{c.events + o.events, c.acquires + o.acquires, c.kernelAllocs + o.kernelAllocs,
		c.trials + o.trials, c.reroutes + o.reroutes, c.engineJobs + o.engineJobs}
}

// perOp writes the counter deltas of ops operations as per-op metrics.
func (c counts) perOp(m map[string]float64, ops int) {
	n := float64(max(ops, 1))
	m["sim.events_per_op"] = c.events / n
	m["noise.trials_per_op"] = c.trials / n
	m["network.reroutes_per_op"] = c.reroutes / n
	m["sim.kernel_reuse_ratio"] = 0
	if c.acquires > 0 {
		m["sim.kernel_reuse_ratio"] = (c.acquires - c.kernelAllocs) / c.acquires
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
