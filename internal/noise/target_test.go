package noise

import (
	"context"
	"math"
	"testing"

	"speedofdata/internal/engine"
	"speedofdata/internal/steane"
)

// highErrorModel is an error rate high enough that the 1e-2 relative
// half-width target is reachable well under the fixed DefaultTrials budget
// (the physical-rate protocols are rare-event estimates that need far more
// than 200k trials for that precision — see the k=0 caveat on
// MonteCarloTarget).
func highErrorModel() Model {
	return Model{GateError: 0.1, MoveError: 1e-3, MovementOpsPerTwoQubitGate: 6}
}

// The acceptance-criteria scenario: sequential sampling reaches the 1e-2
// relative half-width with fewer trials than the fixed default, streaming
// at least 3 refining partials, and the converged estimate agrees with a
// fixed-budget run of the same executor.
func TestMonteCarloTargetConvergesUnderFixedDefault(t *testing.T) {
	code := steane.NewCode()
	s := mustSimulator(t, steane.BasicZeroProtocol(code), highErrorModel())
	s.Sampling = SamplingBitSliced
	var partials []Partial
	est, converged, err := s.MonteCarloTarget(context.Background(), nil,
		Target{Epsilon: 0.01, Confidence: 0.9, MaxTrials: DefaultTrials}, 7,
		func(p Partial) { partials = append(partials, p) })
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Fatalf("target run did not converge within %d trials (final %+v)", DefaultTrials, est)
	}
	if est.Trials >= DefaultTrials {
		t.Errorf("target run used %d trials, want fewer than the fixed default %d", est.Trials, DefaultTrials)
	}
	if len(partials) < 3 {
		t.Errorf("target run streamed %d partials, want at least 3 refinements", len(partials))
	}
	for i, p := range partials {
		if p.Seq != i+1 {
			t.Errorf("partial %d has Seq %d, want %d", i, p.Seq, i+1)
		}
		if i > 0 && p.Estimate.Trials <= partials[i-1].Estimate.Trials {
			t.Errorf("partial %d trials %d did not refine past %d", i, p.Estimate.Trials, partials[i-1].Estimate.Trials)
		}
		if wantDone := i == len(partials)-1; p.Done != wantDone {
			t.Errorf("partial %d Done = %v, want %v", i, p.Done, wantDone)
		}
	}
	last := partials[len(partials)-1]
	if last.Relative > 0.01 || last.Estimate != est {
		t.Errorf("terminal partial %+v does not carry the converged estimate %+v", last, est)
	}
	// Same executor, fixed budget: the sequential estimate is the same
	// statistical quantity.
	fixed := mustSimulator(t, steane.BasicZeroProtocol(code), highErrorModel())
	fixed.Sampling = SamplingBitSliced
	f := fixed.MonteCarlo(DefaultTrials, 7)
	if err := compatible("target vs fixed uncorrectable",
		est.UncorrectableRate, est.StdErr, f.UncorrectableRate, f.StdErr, 3); err != nil {
		t.Error(err)
	}
}

// While no uncorrectable outcome has been observed the Wilson relative
// half-width is exactly 1, so the run must not converge — it spends the
// full cap and reports converged = false.
func TestMonteCarloTargetRunsToCapOnRareEvents(t *testing.T) {
	code := steane.NewCode()
	zero := Model{GateError: 0, MoveError: 0, MovementOpsPerTwoQubitGate: 2}
	s := mustSimulator(t, steane.VerifyAndCorrectProtocol(code), zero)
	s.Sampling = SamplingBitSliced
	cap := 3 * mcChunkTrials
	var last Partial
	est, converged, err := s.MonteCarloTarget(context.Background(), nil,
		Target{Epsilon: 0.01, MaxTrials: cap}, 1, func(p Partial) { last = p })
	if err != nil {
		t.Fatal(err)
	}
	if converged {
		t.Error("zero-event run reported convergence")
	}
	if est.Trials != cap {
		t.Errorf("capped run used %d trials, want the full cap %d", est.Trials, cap)
	}
	if !last.Done || last.Relative != 1 {
		t.Errorf("terminal partial %+v: want Done with relative half-width exactly 1", last)
	}
}

// The stopping decision acts on merged batch tallies, so the converged
// estimate and trial count are byte-identical across worker counts.
func TestMonteCarloTargetDeterministicAcrossWorkers(t *testing.T) {
	code := steane.NewCode()
	tgt := Target{Epsilon: 0.05, Confidence: 0.9, MaxTrials: DefaultTrials}
	run := func(eng *engine.Engine) (Estimate, bool) {
		s := mustSimulator(t, steane.BasicZeroProtocol(code), highErrorModel())
		s.Sampling = SamplingBitSliced
		est, conv, err := s.MonteCarloTarget(context.Background(), eng, tgt, 13, nil)
		if err != nil {
			t.Fatal(err)
		}
		return est, conv
	}
	seqEst, seqConv := run(engine.Sequential())
	parEst, parConv := run(engine.New(7))
	if seqEst != parEst || seqConv != parConv {
		t.Errorf("parallel target run (%+v, %v) != sequential (%+v, %v)", parEst, parConv, seqEst, seqConv)
	}
}

// Target batches are keyed exactly like fixed-trial chunks, so a sequential
// run pre-populates the cache a later fixed run reuses (and vice versa).
func TestMonteCarloTargetSharesChunkCacheWithFixedRun(t *testing.T) {
	code := steane.NewCode()
	eng := engine.New(2)
	s := mustSimulator(t, steane.BasicZeroProtocol(code), highErrorModel())
	s.Sampling = SamplingBitSliced
	est, _, err := s.MonteCarloTarget(context.Background(), eng,
		Target{Epsilon: 0.05, Confidence: 0.9, MaxTrials: DefaultTrials}, 21, nil)
	if err != nil {
		t.Fatal(err)
	}
	hits0 := eng.Tiers().MemoryHits
	fixed, err := s.MonteCarloEngine(context.Background(), eng, est.Trials, 21)
	if err != nil {
		t.Fatal(err)
	}
	hits1 := eng.Tiers().MemoryHits
	if got, want := hits1-hits0, (est.Trials+mcChunkTrials-1)/mcChunkTrials; got != want {
		t.Errorf("fixed run after target run hit %d cached chunks, want all %d", got, want)
	}
	if fixed != est {
		t.Errorf("fixed run over the same trials %+v != target estimate %+v", fixed, est)
	}
}

func TestTargetValidation(t *testing.T) {
	code := steane.NewCode()
	s := mustSimulator(t, steane.BasicZeroProtocol(code), DefaultModel())
	for _, tgt := range []Target{
		{Epsilon: 0, MaxTrials: 100},
		{Epsilon: 1, MaxTrials: 100},
		{Epsilon: -0.1, MaxTrials: 100},
		{Epsilon: 0.1, Confidence: 1.5, MaxTrials: 100},
		{Epsilon: 0.1, Confidence: -0.5, MaxTrials: 100},
		{Epsilon: 0.1, MaxTrials: 0},
	} {
		if _, _, err := s.MonteCarloTarget(context.Background(), nil, tgt, 1, nil); err == nil {
			t.Errorf("target %+v: want validation error, got nil", tgt)
		}
	}
}

// Wilson interval sanity: k = 0 gives half == center exactly (relative
// half-width 1), and large-n intervals approach the Wald interval.
func TestWilsonInterval(t *testing.T) {
	z := normalQuantile(0.975)
	if math.Abs(z-1.959964) > 1e-5 {
		t.Errorf("normalQuantile(0.975) = %v, want 1.959964", z)
	}
	center, half := wilson(0, 100000, z)
	if center <= 0 || math.Abs(half-center) > 1e-15 {
		t.Errorf("wilson(0, n): center %v half %v, want half == center > 0", center, half)
	}
	center, half = wilson(50000, 100000, z)
	wald := z * binomialSE(0.5, 100000)
	if math.Abs(center-0.5) > 1e-6 || math.Abs(half-wald)/wald > 1e-4 {
		t.Errorf("wilson(n/2, n): center %v half %v, want ~0.5 and ~Wald %v", center, half, wald)
	}
	if c, h := wilson(0, 0, z); c != 0 || h != 0 {
		t.Errorf("wilson(0, 0) = %v, %v, want zeros", c, h)
	}
}
