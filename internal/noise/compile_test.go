package noise

import (
	"context"
	"math/rand"
	"testing"

	"speedofdata/internal/engine"
	"speedofdata/internal/noise/stattest"
	"speedofdata/internal/steane"
)

func allProtocols(code steane.Code) map[string]*steane.Protocol {
	ps := steane.StandardProtocols(code)
	ps["pi8"] = steane.Pi8AncillaProtocol(code)
	return ps
}

// randomInjector samples faults independently per location according to the
// model, as in the paper's Monte Carlo methodology, from the caller's RNG
// stream.
type randomInjector struct {
	model Model
	rng   *rand.Rand
}

func (r *randomInjector) faultAt(_ int, kind LocationKind) Fault {
	p := r.model.ErrorProbability(kind)
	if p <= 0 || r.rng.Float64() >= p {
		return Fault{}
	}
	choices := FaultChoices(kind)
	return choices[r.rng.Intn(len(choices))]
}

// monteCarloChunkLegacy is the original interpreter chunk, one runTrial per
// trial through randomInjector: the oracle the compiled dense executor must
// match byte for byte on the same RNG stream.
func (s *Simulator) monteCarloChunkLegacy(rng *rand.Rand, trials int) mcCounts {
	inj := &randomInjector{model: s.Model, rng: rng}
	var c mcCounts
	for i := 0; i < trials; i++ {
		c.tally(s.runTrial(inj))
	}
	return c
}

// The golden acceptance test of the compiled Monte Carlo: for every protocol
// and several seeds, the compiled dense chunk must tally byte-identical
// outcomes to the legacy interpreter chunk driven by the same RNG stream.
func TestDenseChunkMatchesLegacyChunk(t *testing.T) {
	code := steane.NewCode()
	for name, p := range allProtocols(code) {
		for _, model := range []Model{
			DefaultModel(),
			{GateError: 1e-2, MoveError: 1e-3, MovementOpsPerTwoQubitGate: 2},
			{GateError: 0.3, MoveError: 0, MovementOpsPerTwoQubitGate: 0},
		} {
			s := mustSimulator(t, p, model)
			prog, _ := s.compiled()
			for _, seed := range []int64{1, 2, 42, -9, 1 << 50} {
				legacy := s.monteCarloChunkLegacy(rand.New(rand.NewSource(seed)), 3000)
				compiled := prog.denseChunk(rand.New(rand.NewSource(seed)), 3000)
				if legacy != compiled {
					t.Errorf("%s model %+v seed %d: compiled %+v != legacy %+v", name, model, seed, compiled, legacy)
				}
			}
		}
	}
}

// Byte-identical estimates end to end: the legacy interpreter's chunks and
// the (default) dense Simulator must produce the same Estimate through the
// engine, sequentially and in parallel.
func TestMonteCarloCompiledMatchesLegacyEstimates(t *testing.T) {
	code := steane.NewCode()
	trials := 2*8192 + 777
	for name, p := range allProtocols(code) {
		dense := mustSimulator(t, p, DefaultModel())
		legacy := mustSimulator(t, p, DefaultModel())
		for _, seed := range []int64{1, 7, 123} {
			want, err := legacy.monteCarloEngine(context.Background(), engine.Sequential(), trials, seed, legacy.monteCarloChunkLegacy)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dense.MonteCarloEngine(context.Background(), engine.New(4), trials, seed)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s seed %d: compiled estimate %+v != legacy %+v", name, seed, got, want)
			}
		}
	}
}

// The sparse sampler is statistically exact: its estimate must agree with
// the dense path within 3 combined standard errors, and with the
// first-order oracle where first order dominates (the basic circuit).
func TestSparseSamplingMatchesDenseWithinStatistics(t *testing.T) {
	code := steane.NewCode()
	trials := 400000
	for name, p := range allProtocols(code) {
		dense := mustSimulator(t, p, DefaultModel())
		sparse := mustSimulator(t, p, DefaultModel())
		sparse.Sampling = SamplingSparse
		d := dense.MonteCarlo(trials, 11)
		s := sparse.MonteCarlo(trials, 11)
		for _, c := range []struct {
			what           string
			dv, sv, de, se float64
		}{
			{"uncorrectable", d.UncorrectableRate, s.UncorrectableRate, d.StdErr, s.StdErr},
			{"reject", d.RejectRate, s.RejectRate,
				stattest.BinomialSE(d.RejectRate, trials),
				stattest.BinomialSE(s.RejectRate, trials)},
		} {
			if err := stattest.Compatible(name+" "+c.what, c.sv, c.se, c.dv, c.de, 3); err != nil {
				t.Errorf("sparse vs dense %v", err)
			}
		}
	}
}

func TestSparseSamplingConsistentWithFirstOrder(t *testing.T) {
	// For the basic circuit single faults dominate, so the sparse Monte
	// Carlo must agree with the exact first-order enumeration the same way
	// the dense one does (tolerances as in
	// TestMonteCarloMatchesFirstOrderForBasic).
	code := steane.NewCode()
	s := mustSimulator(t, steane.BasicZeroProtocol(code), DefaultModel())
	s.Sampling = SamplingSparse
	fo := s.FirstOrder()
	mc := s.MonteCarlo(400000, 42)
	if err := stattest.CompatibleOneSided("basic uncorrectable", mc.UncorrectableRate, mc.StdErr,
		fo.UncorrectableRate, 4, 0.3); err != nil {
		t.Errorf("sparse vs first-order %v", err)
	}
}

// Sparse runs are deterministic for a seed and byte-identical across worker
// counts, like every other estimator.
func TestSparseSamplingDeterministicAndParallelSafe(t *testing.T) {
	code := steane.NewCode()
	s := mustSimulator(t, steane.VerifyAndCorrectProtocol(code), DefaultModel())
	s.Sampling = SamplingSparse
	trials := 2*8192 + 99
	seq, err := s.MonteCarloEngine(context.Background(), engine.Sequential(), trials, 5)
	if err != nil {
		t.Fatal(err)
	}
	par, err := s.MonteCarloEngine(context.Background(), engine.New(7), trials, 5)
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Errorf("sparse parallel %+v != sequential %+v", par, seq)
	}
}

// Sparse and dense must not share engine cache entries: same seed, same
// protocol, different sampling — the chunk keys must differ.
func TestSparseAndDenseUseDistinctJobKeys(t *testing.T) {
	code := steane.NewCode()
	eng := engine.New(1)
	dense := mustSimulator(t, steane.VerifyOnlyProtocol(code), DefaultModel())
	sparse := mustSimulator(t, steane.VerifyOnlyProtocol(code), DefaultModel())
	sparse.Sampling = SamplingSparse
	if _, err := dense.MonteCarloEngine(context.Background(), eng, 8192, 3); err != nil {
		t.Fatal(err)
	}
	hits0 := eng.Tiers().MemoryHits
	if _, err := sparse.MonteCarloEngine(context.Background(), eng, 8192, 3); err != nil {
		t.Fatal(err)
	}
	hits1 := eng.Tiers().MemoryHits
	if hits1 != hits0 {
		t.Errorf("sparse run hit the dense cache (%d -> %d hits); keys must differ", hits0, hits1)
	}
}

// Zero-fault sparse trials short-circuit to the precompiled clean outcome;
// with a zero-error model every trial does.
func TestSparseZeroErrorModelIsClean(t *testing.T) {
	code := steane.NewCode()
	zero := Model{GateError: 0, MoveError: 0, MovementOpsPerTwoQubitGate: 2}
	for name, p := range allProtocols(code) {
		s := mustSimulator(t, p, zero)
		s.Sampling = SamplingSparse
		est := s.MonteCarlo(500, 1)
		if est.UncorrectableRate != 0 || est.ResidualRate != 0 || est.RejectRate != 0 {
			t.Errorf("%s: sparse zero-error model produced non-zero rates: %+v", name, est)
		}
	}
}

// The compiled program's static location count must match the interpreter's
// enumeration, and each probability class must partition those locations.
func TestCompiledProgramLocationAccounting(t *testing.T) {
	code := steane.NewCode()
	for name, p := range allProtocols(code) {
		s := mustSimulator(t, p, DefaultModel())
		prog, _ := s.compiled()
		if prog.nStatic != s.locationCount() {
			t.Errorf("%s: compiled static locations = %d, want %d", name, prog.nStatic, s.locationCount())
		}
		if len(prog.locInstr) != prog.nStatic {
			t.Errorf("%s: locInstr table has %d entries, want %d", name, len(prog.locInstr), prog.nStatic)
		}
		classed := 0
		for _, c := range prog.classes {
			classed += len(c.locs)
			if !(c.prob > 0) {
				t.Errorf("%s: class with non-positive probability %v", name, c.prob)
			}
		}
		if classed != prog.nStatic {
			t.Errorf("%s: classes cover %d locations, want all %d (default model has no p=0 kinds)",
				name, classed, prog.nStatic)
		}
	}
}

// The dense trial loop is the hottest code in the repository and must not
// allocate: one allocation per trial was a measurable share of the legacy
// profile.
func TestRunDenseAllocations(t *testing.T) {
	code := steane.NewCode()
	s := mustSimulator(t, steane.VerifyAndCorrectProtocol(code), DefaultModel())
	prog, _ := s.compiled()
	var lf lfRand
	lf.capture(rand.New(rand.NewSource(1)))
	meas := make([]uint64, prog.measWords)
	allocs := testing.AllocsPerRun(200, func() {
		prog.runDense(&lf, meas)
	})
	if allocs != 0 {
		t.Fatalf("runDense allocations = %v per trial, want 0", allocs)
	}
}

// Fingerprints are computed once per simulator (they used to be re-derived
// from the full op list on every MonteCarloEngine call).
func TestProtocolFingerprintCached(t *testing.T) {
	code := steane.NewCode()
	s := mustSimulator(t, steane.VerifyOnlyProtocol(code), DefaultModel())
	_, fp1 := s.compiled()
	_, fp2 := s.compiled()
	if fp1 != fp2 || fp1 == "" {
		t.Fatalf("cached fingerprint unstable: %q vs %q", fp1, fp2)
	}
	if want := protocolFingerprint(s.Protocol); fp1 != want {
		t.Fatalf("cached fingerprint %q != direct %q", fp1, want)
	}
}
