package noise

import (
	"context"
	"math/rand"
	"testing"

	"speedofdata/internal/engine"
	"speedofdata/internal/steane"
)

// The bit-sliced sampler is statistically exact: its estimate must agree
// with the dense path within 3 combined standard errors, for every protocol
// and at both physical and stress error rates.
func TestBitSlicedMatchesDenseWithinStatistics(t *testing.T) {
	code := steane.NewCode()
	trials := 400000
	for _, model := range []Model{
		DefaultModel(),
		{GateError: 1e-2, MoveError: 1e-3, MovementOpsPerTwoQubitGate: 2},
	} {
		for name, p := range allProtocols(code) {
			dense := mustSimulator(t, p, model)
			bs := mustSimulator(t, p, model)
			bs.Sampling = SamplingBitSliced
			d := dense.MonteCarlo(trials, 11)
			b := bs.MonteCarlo(trials, 11)
			for _, c := range []struct {
				what           string
				dv, sv, de, se float64
			}{
				{"uncorrectable", d.UncorrectableRate, b.UncorrectableRate, d.StdErr, b.StdErr},
				{"residual", d.ResidualRate, b.ResidualRate,
					binomialSE(d.ResidualRate, trials), binomialSE(b.ResidualRate, trials)},
				{"reject", d.RejectRate, b.RejectRate,
					binomialSE(d.RejectRate, trials), binomialSE(b.RejectRate, trials)},
			} {
				if err := compatible(name+" "+c.what, c.sv, c.se, c.dv, c.de, 3); err != nil {
					t.Errorf("bitsliced vs dense %v", err)
				}
			}
		}
	}
}

// For the basic circuit single faults dominate, so bit-sliced Monte Carlo
// must also agree with the exact first-order enumeration (tolerances as in
// the dense and sparse oracle tests).
func TestBitSlicedConsistentWithFirstOrder(t *testing.T) {
	code := steane.NewCode()
	s := mustSimulator(t, steane.BasicZeroProtocol(code), DefaultModel())
	s.Sampling = SamplingBitSliced
	fo := s.FirstOrder()
	mc := s.MonteCarlo(400000, 42)
	if err := compatibleOneSided("basic uncorrectable", mc.UncorrectableRate, mc.StdErr,
		fo.UncorrectableRate, 4, 0.3); err != nil {
		t.Errorf("bitsliced vs first-order %v", err)
	}
}

// Bit-sliced runs are deterministic for a seed and byte-identical across
// worker counts, like every other estimator — including with a ragged
// trial count that exercises both a short final chunk and a masked tail
// word inside it.
func TestBitSlicedDeterministicAndParallelSafe(t *testing.T) {
	code := steane.NewCode()
	s := mustSimulator(t, steane.VerifyAndCorrectProtocol(code), DefaultModel())
	s.Sampling = SamplingBitSliced
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
		t.Errorf("bitsliced parallel %+v != sequential %+v", par, seq)
	}
}

// Every trial of a word lands in exactly one tally bucket, including the
// masked lanes of a ragged tail word.
func TestBitSlicedTrialConservation(t *testing.T) {
	code := steane.NewCode()
	for name, p := range allProtocols(code) {
		s := mustSimulator(t, p, Model{GateError: 0.2, MoveError: 0.05, MovementOpsPerTwoQubitGate: 2})
		s.Sampling = SamplingBitSliced
		prog, _ := s.compiled()
		for _, trials := range []int{1, 63, 64, 65, 1000} {
			var lf lfRand
			lf.capture(rand.New(rand.NewSource(9)))
			c := prog.bitslicedChunk(&lf, trials)
			if c.Accepted+c.Rejected != trials {
				t.Errorf("%s trials=%d: accepted %d + rejected %d != trials", name, trials, c.Accepted, c.Rejected)
			}
			if c.Uncorrectable > c.Accepted || c.Residual > c.Accepted {
				t.Errorf("%s trials=%d: outcome counts exceed accepted: %+v", name, trials, c)
			}
		}
	}
}

// Bit-sliced chunks must not share engine cache entries with dense or
// sparse chunks of the same protocol and seed: the lane draw order is a
// different RNG stream.
func TestBitSlicedUsesDistinctJobKeys(t *testing.T) {
	code := steane.NewCode()
	eng := engine.New(1)
	for _, mode := range []Sampling{SamplingDense, SamplingSparse} {
		other := mustSimulator(t, steane.VerifyOnlyProtocol(code), DefaultModel())
		other.Sampling = mode
		if _, err := other.MonteCarloEngine(context.Background(), eng, 8192, 3); err != nil {
			t.Fatal(err)
		}
	}
	hits0 := eng.Tiers().MemoryHits
	bs := mustSimulator(t, steane.VerifyOnlyProtocol(code), DefaultModel())
	bs.Sampling = SamplingBitSliced
	if _, err := bs.MonteCarloEngine(context.Background(), eng, 8192, 3); err != nil {
		t.Fatal(err)
	}
	hits1 := eng.Tiers().MemoryHits
	if hits1 != hits0 {
		t.Errorf("bitsliced run hit another sampler's cache (%d -> %d hits); keys must differ", hits0, hits1)
	}
	// A second bit-sliced run must hit its own entries.
	if _, err := bs.MonteCarloEngine(context.Background(), eng, 8192, 3); err != nil {
		t.Fatal(err)
	}
	if hits2 := eng.Tiers().MemoryHits; hits2 == hits1 {
		t.Errorf("repeated bitsliced run missed its own cache (%d hits unchanged)", hits1)
	}
}

// With a zero-error model every word short-circuits to the clean outcome.
func TestBitSlicedZeroErrorModelIsClean(t *testing.T) {
	code := steane.NewCode()
	zero := Model{GateError: 0, MoveError: 0, MovementOpsPerTwoQubitGate: 2}
	for name, p := range allProtocols(code) {
		s := mustSimulator(t, p, zero)
		s.Sampling = SamplingBitSliced
		est := s.MonteCarlo(500, 1)
		if est.UncorrectableRate != 0 || est.ResidualRate != 0 || est.RejectRate != 0 {
			t.Errorf("%s: bitsliced zero-error model produced non-zero rates: %+v", name, est)
		}
	}
}

// The word executor is the new hottest code and must not allocate: the
// chunk loop's only allocations are its one-time scratch buffers.
func TestBitSlicedWordAllocations(t *testing.T) {
	code := steane.NewCode()
	s := mustSimulator(t, steane.VerifyAndCorrectProtocol(code), DefaultModel())
	prog, _ := s.compiled()
	var lf lfRand
	lf.capture(rand.New(rand.NewSource(1)))
	var st wordState
	st.measLane = make([]uint64, prog.measWords*64)
	scratch := make([]wordFault, 0, 256)
	var c mcCounts
	allocs := testing.AllocsPerRun(200, func() {
		faults := prog.sampleWordFaults(&lf, scratch)
		if len(faults) == 0 {
			c.tallyN(prog.clean, 64)
			return
		}
		rejected := prog.runWord(&st, &lf, faults)
		prog.tallyWord(&st, rejected, ^uint64(0), &c)
	})
	if allocs != 0 {
		t.Fatalf("bit-sliced word executor allocations = %v per word, want 0", allocs)
	}
}
