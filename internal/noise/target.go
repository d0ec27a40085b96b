package noise

import (
	"context"
	"fmt"
	"math"

	"speedofdata/internal/engine"
)

// DefaultConfidence is the confidence level of sequential sampling when the
// caller leaves Target.Confidence zero.
const DefaultConfidence = 0.95

// Target is a precision goal for sequential Monte Carlo: run trials until
// the Wilson score interval of the uncorrectable rate, at the given
// confidence level, has a relative half-width no larger than Epsilon — or
// until MaxTrials is spent.
type Target struct {
	// Epsilon is the target relative confidence-interval half-width
	// (half-width / interval center), in (0, 1).
	Epsilon float64
	// Confidence is the confidence level of the interval, in (0, 1).
	// Zero means DefaultConfidence.
	Confidence float64
	// MaxTrials caps the total effort (the run stops unconverged at the
	// cap).  It must be positive.
	MaxTrials int
}

func (t Target) validate() error {
	if !(t.Epsilon > 0 && t.Epsilon < 1) {
		return fmt.Errorf("noise: target epsilon %v outside (0, 1)", t.Epsilon)
	}
	if t.Confidence != 0 && !(t.Confidence > 0 && t.Confidence < 1) {
		return fmt.Errorf("noise: target confidence %v outside (0, 1)", t.Confidence)
	}
	if t.MaxTrials <= 0 {
		return fmt.Errorf("noise: target max trials must be positive, got %d", t.MaxTrials)
	}
	return nil
}

// Partial is one refining estimate of a sequential sampling run, published
// after each batch of chunks.
type Partial struct {
	// Seq numbers the partials of one run from 1; later partials use
	// strictly more trials.
	Seq int
	// Estimate is the estimate over all trials so far.
	Estimate Estimate
	// HalfWidth and Relative are the absolute and relative Wilson
	// half-widths of the uncorrectable rate at the target confidence.
	HalfWidth, Relative float64
	// Done marks the terminal partial (converged or trial cap reached).
	Done bool
}

// MonteCarloTarget estimates error rates by sequential sampling: it runs
// doubling batches of the fixed deterministic chunks until the Wilson score
// interval of the uncorrectable rate meets the target relative half-width,
// or until t.MaxTrials is spent.  The returned bool reports convergence.
//
// The stopping rule only ever acts at batch boundaries over the
// order-independent merged tallies, so the decision — like the estimate —
// is byte-identical across worker counts.  Chunks are keyed exactly as a
// fixed-trial MonteCarloEngine run of the same seed (chunk index order,
// full mcChunkTrials words, a ragged final chunk only at the cap), so a
// target run and a fixed run share engine cache entries chunk for chunk.
//
// onPartial (optional) observes each refining estimate, including a final
// one with Done set.  It is called between batches on the caller's
// goroutine.
//
// A zero-count caveat is built into the rule: while no uncorrectable
// outcome has been seen, the Wilson relative half-width is exactly 1, so
// rare-event protocols never converge spuriously — they run to the cap.
func (s *Simulator) MonteCarloTarget(ctx context.Context, eng *engine.Engine, t Target, seed int64, onPartial func(Partial)) (Estimate, bool, error) {
	if err := t.validate(); err != nil {
		return Estimate{}, false, err
	}
	conf := t.Confidence
	if conf == 0 {
		conf = DefaultConfidence
	}
	z := normalQuantile((1 + conf) / 2)

	var total mcCounts
	trials, chunk, seq := 0, 0, 0
	for batch := 1; ; batch *= 2 {
		want := batch * mcChunkTrials
		if remaining := t.MaxTrials - trials; want > remaining {
			want = remaining
		}
		jobs := s.chunkJobs(seed, chunk, want, s.monteCarloChunk)
		tallies, err := engine.Run(ctx, eng, jobs)
		if err != nil {
			return Estimate{}, false, err
		}
		for _, c := range tallies {
			total = total.add(c)
		}
		chunk += len(jobs)
		trials += want

		est := estimateFrom(total, trials)
		center, half := wilson(total.Uncorrectable, total.Accepted, z)
		rel := 1.0
		if center > 0 {
			rel = half / center
		}
		converged := total.Accepted > 0 && rel <= t.Epsilon
		capped := trials >= t.MaxTrials
		seq++
		if onPartial != nil {
			onPartial(Partial{Seq: seq, Estimate: est, HalfWidth: half, Relative: rel, Done: converged || capped})
		}
		if converged || capped {
			return est, converged, nil
		}
	}
}

// wilson returns the center and half-width of the Wilson score interval for
// k successes in n trials at critical value z.  Unlike the Wald interval it
// is well behaved at k = 0, where half/center is exactly 1 — the property
// the sequential stopping rule relies on to never converge before the first
// observed event.
func wilson(k, n int, z float64) (center, half float64) {
	if n == 0 {
		return 0, 0
	}
	nf := float64(n)
	p := float64(k) / nf
	z2 := z * z
	denom := 1 + z2/nf
	center = (p + z2/(2*nf)) / denom
	half = z / denom * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	return center, half
}

// normalQuantile is the inverse standard normal CDF (Acklam's rational
// approximation, relative error below 1.15e-9 — far tighter than any Monte
// Carlo stopping rule needs).
func normalQuantile(p float64) float64 {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("noise: normal quantile of %v", p))
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const low, high = 0.02425, 1 - 0.02425
	switch {
	case p < low:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > high:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}
