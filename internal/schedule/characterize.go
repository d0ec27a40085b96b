package schedule

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"speedofdata/internal/engine"
	"speedofdata/internal/iontrap"
	"speedofdata/internal/quantum"
	"speedofdata/internal/sim"
)

// Characterization is the per-benchmark summary behind Tables 2 and 3.
type Characterization struct {
	Name string
	// DataOpLatency, QECInteractLatency and AncillaPrepLatency decompose the
	// no-overlap critical path (Table 2 columns 2-4), in microseconds.
	DataOpLatency      iontrap.Microseconds
	QECInteractLatency iontrap.Microseconds
	AncillaPrepLatency iontrap.Microseconds
	// SpeedOfDataTime is the critical path when ancilla preparation is fully
	// overlapped (the minimal running time), in microseconds.
	SpeedOfDataTime iontrap.Microseconds
	// CriticalPathGates is the number of gates on the no-overlap critical path.
	CriticalPathGates int
	// TotalGates, Pi8Gates and QECSteps summarise the whole circuit.
	TotalGates int
	Pi8Gates   int
	QECSteps   int
	// ZeroAncillae and Pi8Ancillae are the total encoded ancillae consumed.
	ZeroAncillae int
	Pi8Ancillae  int
	// ZeroBandwidthPerMs and Pi8BandwidthPerMs are the Table 3 averages: the
	// encoded ancilla rates needed to sustain the speed-of-data execution.
	ZeroBandwidthPerMs float64
	Pi8BandwidthPerMs  float64
}

// NoOverlapTotal is the execution time with no overlap at all (the sum of the
// three Table 2 columns).
func (c Characterization) NoOverlapTotal() iontrap.Microseconds {
	return c.DataOpLatency + c.QECInteractLatency + c.AncillaPrepLatency
}

// Fractions returns each Table 2 column as a fraction of the no-overlap total.
func (c Characterization) Fractions() (dataOp, interact, prep float64) {
	total := float64(c.NoOverlapTotal())
	if total == 0 {
		return 0, 0, 0
	}
	return float64(c.DataOpLatency) / total, float64(c.QECInteractLatency) / total, float64(c.AncillaPrepLatency) / total
}

// Speedup is the ratio of the no-overlap execution time to the speed-of-data
// execution time: how much taking ancilla preparation off the critical path
// buys.
func (c Characterization) Speedup() float64 {
	if c.SpeedOfDataTime == 0 {
		return 0
	}
	return float64(c.NoOverlapTotal()) / float64(c.SpeedOfDataTime)
}

// Characterize computes the Table 2 / Table 3 characterisation of a logical
// circuit under a latency model.
func Characterize(c *quantum.Circuit, m LatencyModel) (Characterization, error) {
	if err := m.Validate(); err != nil {
		return Characterization{}, err
	}
	if err := c.Validate(); err != nil {
		return Characterization{}, err
	}
	out := Characterization{Name: c.Name}
	stats := c.ComputeStats()
	out.TotalGates = stats.TotalGates
	out.Pi8Gates = stats.Pi8Gates
	out.QECSteps = stats.TotalGates
	out.ZeroAncillae = m.ZeroAncillaePerQEC * out.QECSteps
	out.Pi8Ancillae = stats.Pi8Gates

	if stats.TotalGates == 0 {
		return out, nil
	}

	dag := c.DAG()

	// No-overlap critical path, then decompose it gate by gate.
	finish, _ := dag.WeightedCriticalPath(func(g quantum.Gate) float64 {
		return float64(m.GateWeightNoOverlap(g))
	})
	path := backtrackCriticalPath(dag, finish, func(g quantum.Gate) float64 {
		return float64(m.GateWeightNoOverlap(g))
	})
	out.CriticalPathGates = len(path)
	for _, gi := range path {
		g := c.Gates[gi]
		out.DataOpLatency += m.DataOpLatency(g)
		out.QECInteractLatency += m.QECInteractLatency()
		out.AncillaPrepLatency += m.AncillaPrepLatency()
	}

	// Speed-of-data critical path (its own path, possibly different).
	_, speedOfData := dag.WeightedCriticalPath(func(g quantum.Gate) float64 {
		return float64(m.GateWeightSpeedOfData(g))
	})
	out.SpeedOfDataTime = iontrap.Microseconds(speedOfData)

	ms := out.SpeedOfDataTime.Milliseconds()
	if ms > 0 {
		out.ZeroBandwidthPerMs = float64(out.ZeroAncillae) / ms
		out.Pi8BandwidthPerMs = float64(out.Pi8Ancillae) / ms
	}
	return out, nil
}

// CharacterizeAll characterises a set of circuits through the experiment
// engine, one job per circuit, preserving input order.  Repeated circuits hit
// the engine's cache instead of recomputing the critical-path analysis.
func CharacterizeAll(ctx context.Context, eng *engine.Engine, cs []*quantum.Circuit, m LatencyModel) ([]Characterization, error) {
	jobs := make([]engine.Job[Characterization], len(cs))
	for i, c := range cs {
		c := c
		jobs[i] = engine.Job[Characterization]{
			Key: engine.Fingerprint("schedule.characterize", c.Fingerprint(), m),
			Run: func(context.Context, *rand.Rand) (Characterization, error) {
				return Characterize(c, m)
			},
		}
	}
	return engine.Run(ctx, eng, jobs)
}

// backtrackCriticalPath recovers one longest path (as gate indices in
// execution order) from the per-gate finish times of a weighted critical-path
// computation.
func backtrackCriticalPath(dag *quantum.DAG, finish []float64, weight func(g quantum.Gate) float64) []int {
	if len(finish) == 0 {
		return nil
	}
	// Find the gate with the maximum finish time.
	end := 0
	for i, f := range finish {
		if f > finish[end] {
			end = i
		}
	}
	var rev []int
	cur := end
	const eps = 1e-6
	for {
		rev = append(rev, cur)
		w := weight(dag.Circuit.Gates[cur])
		start := finish[cur] - w
		if start <= eps {
			break
		}
		next := -1
		for _, p := range dag.Pred[cur] {
			if math.Abs(finish[p]-start) < eps {
				next = p
				break
			}
		}
		if next < 0 {
			// Should not happen for a consistent DP; stop rather than loop.
			break
		}
		cur = next
	}
	// Reverse into execution order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// DemandPoint is one bucket of the Figure 7 ancilla-demand profile.
type DemandPoint struct {
	// TimeMs is the bucket's end time in milliseconds of speed-of-data
	// execution.
	TimeMs float64
	// ZeroAncillae and Pi8Ancillae are the encoded ancillae consumed by QEC
	// steps and π/8 gates finishing inside the bucket.
	ZeroAncillae int
	Pi8Ancillae  int
}

// DefaultDemandBuckets is the standard bucket count for Figure 7 demand
// profiles, matching the paper's plot resolution.  The qsd CLI (-buckets)
// and the HTTP API (?buckets=) both default to it.
const DefaultDemandBuckets = 20

// DemandProfile computes the Figure 7 profile: the number of encoded
// ancillae that must be delivered in each time bucket for the circuit to run
// at the speed of data.
func DemandProfile(c *quantum.Circuit, m LatencyModel, buckets int) ([]DemandPoint, error) {
	if buckets <= 0 {
		return nil, fmt.Errorf("schedule: bucket count must be positive, got %d", buckets)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	dag := c.DAG()
	finish, makespan := dag.WeightedCriticalPath(func(g quantum.Gate) float64 {
		return float64(m.GateWeightSpeedOfData(g))
	})
	points := make([]DemandPoint, buckets)
	for i := range points {
		points[i].TimeMs = (makespan / float64(buckets) * float64(i+1)) / 1000.0
	}
	if makespan == 0 {
		return points, nil
	}
	for gi, g := range c.Gates {
		frac := finish[gi] / makespan
		b := int(frac * float64(buckets))
		if b >= buckets {
			b = buckets - 1
		}
		points[b].ZeroAncillae += m.ZeroAncillaePerQEC
		if g.Kind.RequiresPi8Ancilla() {
			points[b].Pi8Ancillae++
		}
	}
	return points, nil
}

// PeakZeroBandwidthPerMs returns the largest per-bucket zero-ancilla demand
// rate in a profile, in encoded ancillae per millisecond.
func PeakZeroBandwidthPerMs(profile []DemandPoint) float64 {
	peak := 0.0
	prev := 0.0
	for _, p := range profile {
		width := p.TimeMs - prev
		prev = p.TimeMs
		if width <= 0 {
			continue
		}
		rate := float64(p.ZeroAncillae) / width
		if rate > peak {
			peak = rate
		}
	}
	return peak
}

// SweepPoint is one point of the Figure 8 execution-time vs ancilla
// throughput curve.
type SweepPoint struct {
	// ThroughputPerMs is the steady encoded-zero-ancilla production rate.
	ThroughputPerMs float64
	// ExecutionTimeMs is the resulting circuit execution time.
	ExecutionTimeMs float64
}

// ThroughputSweepEngine simulates the circuit under a range of steady
// encoded-zero ancilla production rates and returns the execution time for
// each (Figure 8), one engine job per rate.  A rate of +Inf gives the
// speed-of-data time.  Points come back in input-rate order regardless of
// worker count.
func ThroughputSweepEngine(ctx context.Context, eng *engine.Engine, c *quantum.Circuit, m LatencyModel, ratesPerMs []float64) ([]SweepPoint, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	fp := c.Fingerprint()
	jobs := make([]engine.Job[SweepPoint], len(ratesPerMs))
	for i, r := range ratesPerMs {
		if r <= 0 {
			return nil, fmt.Errorf("schedule: throughput must be positive, got %v", r)
		}
		r := r
		jobs[i] = engine.Job[SweepPoint]{
			Key: engine.Fingerprint("schedule.throughput", fp, m, r),
			Run: func(context.Context, *rand.Rand) (SweepPoint, error) {
				t, err := SimulateWithThroughput(c, m, r)
				if err != nil {
					return SweepPoint{}, err
				}
				return SweepPoint{ThroughputPerMs: r, ExecutionTimeMs: t.Milliseconds()}, nil
			},
		}
	}
	return engine.Run(ctx, eng, jobs)
}

// SimulateWithThroughput performs a dataflow (list-scheduling) simulation in
// which every gate must additionally acquire the encoded zero ancillae its
// QEC step consumes from a shared pool refilled at a steady rate.  Ancillae
// accumulate while the circuit cannot use them, which is how a factory with
// buffering behaves.
func SimulateWithThroughput(c *quantum.Circuit, m LatencyModel, ratePerMs float64) (iontrap.Microseconds, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if !(ratePerMs > 0) {
		// A zero rate would push every issue time to +Inf; reject it with the
		// kernel's typed error instead (an infinite rate is the speed of data
		// and is fine).
		return 0, fmt.Errorf("schedule: throughput %v/ms: %w", ratePerMs, sim.ErrZeroRate)
	}
	dag := c.DAG()
	ratePerUs := ratePerMs / 1000.0
	perGateAncillae := float64(m.ZeroAncillaePerQEC)

	n := len(c.Gates)
	finish := make([]float64, n)
	ready := make([]float64, n)
	indeg := make([]int, n)
	copy(indeg, dag.InDegree)

	// List scheduling in first-come-first-served order of data readiness
	// (ties broken by gate index, the deterministic order sim.TaskQueue
	// shares with Replay's event-driven dispatcher): each gate issues when
	// its operands are ready and the shared ancilla pool (refilled at the
	// steady rate, with accumulation allowed) has produced enough encoded
	// zeros for its QEC step.
	pq := &sim.TaskQueue{}
	for i, d := range indeg {
		if d == 0 {
			pq.Push(sim.Task{Index: i, Ready: 0})
		}
	}
	consumed := 0.0
	makespan := 0.0
	processed := 0
	for pq.Len() > 0 {
		item := pq.Pop()
		gi := item.Index
		processed++
		consumed += perGateAncillae
		issue := item.Ready
		if !math.IsInf(ratePerMs, 1) {
			if t := consumed / ratePerUs; t > issue {
				issue = t
			}
		}
		finish[gi] = issue + float64(m.GateWeightSpeedOfData(c.Gates[gi]))
		if finish[gi] > makespan {
			makespan = finish[gi]
		}
		for _, s := range dag.Succ[gi] {
			if finish[gi] > ready[s] {
				ready[s] = finish[gi]
			}
			indeg[s]--
			if indeg[s] == 0 {
				pq.Push(sim.Task{Index: s, Ready: ready[s]})
			}
		}
	}
	if processed != n {
		return 0, fmt.Errorf("schedule: dependence graph of %q is cyclic", c.Name)
	}
	return iontrap.Microseconds(makespan), nil
}

// DefaultSweepRates returns a log-spaced set of throughputs (ancillae per
// millisecond) around a circuit's average requirement, for Figure 8.
func DefaultSweepRates(avgPerMs float64) []float64 {
	if avgPerMs <= 0 {
		avgPerMs = 1
	}
	factors := []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.85, 1.0, 1.2, 1.5, 2, 3, 5, 10, 30, 100}
	rates := make([]float64, 0, len(factors))
	for _, f := range factors {
		rates = append(rates, avgPerMs*f)
	}
	sort.Float64s(rates)
	return rates
}
