package noise

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"speedofdata/internal/engine"
	"speedofdata/internal/steane"
)

func mustSimulator(t *testing.T, p *steane.Protocol, m Model) *Simulator {
	t.Helper()
	s, err := NewSimulator(steane.NewCode(), p, m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaultModel(t *testing.T) {
	m := DefaultModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.GateError != 1e-4 || m.MoveError != 1e-6 {
		t.Errorf("default model = %+v, want the paper's 1e-4 / 1e-6", m)
	}
}

func TestModelValidate(t *testing.T) {
	bad := []Model{
		{GateError: -0.1, MoveError: 0},
		{GateError: 0, MoveError: 2},
		{GateError: 0, MoveError: 0, MovementOpsPerTwoQubitGate: -1},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %+v should be invalid", m)
		}
	}
}

func TestErrorProbabilityByKind(t *testing.T) {
	m := DefaultModel()
	if m.ErrorProbability(LocMove) != 1e-6 {
		t.Error("movement locations must use the movement error rate")
	}
	for _, k := range []LocationKind{LocPrep, LocOneQubit, LocTwoQubit, LocMeasure} {
		if m.ErrorProbability(k) != 1e-4 {
			t.Errorf("%v should use the gate error rate", k)
		}
	}
}

func TestFaultChoices(t *testing.T) {
	if got := len(FaultChoices(LocTwoQubit)); got != 6 {
		t.Errorf("two-qubit fault choices = %d, want 6 (a Pauli on one participant)", got)
	}
	if got := len(FaultChoices(LocOneQubit)); got != 3 {
		t.Errorf("one-qubit fault choices = %d, want 3", got)
	}
	if got := len(FaultChoices(LocMeasure)); got != 1 {
		t.Errorf("measurement fault choices = %d, want 1", got)
	}
	for _, f := range FaultChoices(LocTwoQubit) {
		if f == (Fault{}) {
			t.Error("fault choices must not include the identity")
		}
	}
}

func TestPauliErrorComponents(t *testing.T) {
	if !PauliX.HasX() || PauliX.HasZ() {
		t.Error("X component wrong")
	}
	if !PauliY.HasX() || !PauliY.HasZ() {
		t.Error("Y components wrong")
	}
	if PauliZ.HasX() || !PauliZ.HasZ() {
		t.Error("Z component wrong")
	}
	if PauliNone.HasX() || PauliNone.HasZ() {
		t.Error("identity has no components")
	}
	if PauliX.String() != "X" || PauliNone.String() != "I" {
		t.Error("pauli strings wrong")
	}
	if LocMove.String() != "move" || LocTwoQubit.String() != "2q-gate" {
		t.Error("location kind strings wrong")
	}
}

// A fault-free run of every protocol must be accepted and leave no residual
// error: the protocols and the propagation rules are self-consistent.
func TestNoiselessRunsAreClean(t *testing.T) {
	code := steane.NewCode()
	for name, p := range allProtocols(code) {
		prog, _ := mustSimulator(t, p, DefaultModel()).compiled()
		if prog.clean.Rejected {
			t.Errorf("%s rejects its own noiseless run", name)
		}
		if prog.clean.Residual || prog.clean.Uncorrectable {
			t.Errorf("%s leaves residual error in a noiseless run: %+v", name, prog.clean)
		}
	}
}

func TestZeroErrorModelGivesZeroRates(t *testing.T) {
	code := steane.NewCode()
	zero := Model{GateError: 0, MoveError: 0, MovementOpsPerTwoQubitGate: 2}
	for name, p := range steane.StandardProtocols(code) {
		s := mustSimulator(t, p, zero)
		est := s.MonteCarlo(200, 1)
		if est.UncorrectableRate != 0 || est.ResidualRate != 0 || est.RejectRate != 0 {
			t.Errorf("%s: zero-error model produced non-zero rates: %+v", name, est)
		}
	}
}

func TestFirstOrderBasicPrepMagnitude(t *testing.T) {
	// The basic (non-fault-tolerant) encoder has ~19 gate locations at 1e-4;
	// its first-order uncorrectable rate should be within an order of
	// magnitude of the paper's 1.8e-3 (we expect a few e-4 because only a
	// fraction of single faults propagate into logical errors).
	code := steane.NewCode()
	s := mustSimulator(t, steane.BasicZeroProtocol(code), DefaultModel())
	est := s.FirstOrder()
	if est.UncorrectableRate <= 1e-5 || est.UncorrectableRate >= 5e-3 {
		t.Errorf("basic prep first-order uncorrectable rate = %v, expected O(1e-4..1e-3)", est.UncorrectableRate)
	}
	if est.ResidualRate < est.UncorrectableRate {
		t.Error("residual rate must be at least the uncorrectable rate")
	}
	// Residual rate should be close to the total fault probability (every
	// fault in an unprotected encoder leaves some residual error), i.e.
	// around 19 * 1e-4.
	if est.ResidualRate < 5e-4 || est.ResidualRate > 5e-3 {
		t.Errorf("basic prep first-order residual rate = %v, expected O(2e-3)", est.ResidualRate)
	}
}

func TestFirstOrderOrderingAcrossVariants(t *testing.T) {
	// The paper's conclusion (Section 2.3): verification plus correction is
	// the highest-fidelity preparation and is the circuit used for the
	// factories.  At first order it must beat both the basic circuit and
	// verification alone, and verification alone must beat the basic circuit.
	code := steane.NewCode()
	model := DefaultModel()
	basic := mustSimulator(t, steane.BasicZeroProtocol(code), model).FirstOrder()
	verify := mustSimulator(t, steane.VerifyOnlyProtocol(code), model).FirstOrder()
	vc := mustSimulator(t, steane.VerifyAndCorrectProtocol(code), model).FirstOrder()

	// Verification discards runs whose encoded bit value was flipped, so it
	// cuts the uncorrectable-error rate by several times (the paper sees
	// 1.8e-3 -> 3.7e-4).
	if verify.UncorrectableRate >= basic.UncorrectableRate/2 {
		t.Errorf("verify-only (%v) should be well below basic (%v) on uncorrectable errors",
			verify.UncorrectableRate, basic.UncorrectableRate)
	}
	if vc.UncorrectableRate >= basic.UncorrectableRate {
		t.Errorf("verify-and-correct (%v) should be below basic (%v)", vc.UncorrectableRate, basic.UncorrectableRate)
	}
	// At first order verify-and-correct and verify-only are comparable (the
	// correction stages add a second verified block whose escaped errors can
	// propagate); the factor between them stays small.
	if vc.UncorrectableRate > verify.UncorrectableRate*3 {
		t.Errorf("verify-and-correct (%v) should stay within 3x of verify-only (%v)",
			vc.UncorrectableRate, verify.UncorrectableRate)
	}
}

func TestFirstOrderCorrectOnlyIsWeakest(t *testing.T) {
	// Figure 4: correction alone is the weakest of the improvements — it
	// repairs single correctable errors but cannot undo the correlated
	// (logical) errors the non-fault-tolerant encoder produces, so its
	// uncorrectable rate stays on the same order as the basic circuit and
	// above the verified variants.
	code := steane.NewCode()
	model := DefaultModel()
	basic := mustSimulator(t, steane.BasicZeroProtocol(code), model).FirstOrder()
	verify := mustSimulator(t, steane.VerifyOnlyProtocol(code), model).FirstOrder()
	correct := mustSimulator(t, steane.CorrectOnlyProtocol(code), model).FirstOrder()
	if correct.UncorrectableRate < verify.UncorrectableRate {
		t.Errorf("correct-only (%v) should not beat verify-only (%v) on uncorrectable errors",
			correct.UncorrectableRate, verify.UncorrectableRate)
	}
	if correct.UncorrectableRate > basic.UncorrectableRate*5 {
		t.Errorf("correct-only (%v) should stay within the same order of magnitude as basic (%v)",
			correct.UncorrectableRate, basic.UncorrectableRate)
	}
}

func TestVerificationRejectRateMagnitude(t *testing.T) {
	// Section 2.3: the verification failure rate of the verified subunit is
	// about 0.2%.  Our first-order rejection rate should be of that order
	// (between 0.01% and 1%).
	code := steane.NewCode()
	s := mustSimulator(t, steane.VerifyOnlyProtocol(code), DefaultModel())
	est := s.FirstOrder()
	if est.RejectRate < 1e-4 || est.RejectRate > 1e-2 {
		t.Errorf("verification failure rate = %v, expected around 0.2%%", est.RejectRate)
	}
}

func TestMonteCarloMatchesFirstOrderForBasic(t *testing.T) {
	// For the basic circuit the error rate is dominated by single faults, so
	// Monte Carlo and first-order enumeration must agree within statistics.
	code := steane.NewCode()
	s := mustSimulator(t, steane.BasicZeroProtocol(code), DefaultModel())
	fo := s.FirstOrder()
	mc := s.MonteCarlo(400000, 42)
	if mc.Trials != 400000 {
		t.Fatalf("trials = %d", mc.Trials)
	}
	diff := math.Abs(mc.UncorrectableRate - fo.UncorrectableRate)
	tolerance := 4*mc.StdErr + 0.3*fo.UncorrectableRate
	if diff > tolerance {
		t.Errorf("Monte Carlo (%v ± %v) and first-order (%v) disagree beyond tolerance %v",
			mc.UncorrectableRate, mc.StdErr, fo.UncorrectableRate, tolerance)
	}
}

func TestMonteCarloVerifiedVariantsBeatBasic(t *testing.T) {
	code := steane.NewCode()
	model := DefaultModel()
	basic := mustSimulator(t, steane.BasicZeroProtocol(code), model).MonteCarlo(400000, 7)
	verify := mustSimulator(t, steane.VerifyOnlyProtocol(code), model).MonteCarlo(400000, 7)
	vc := mustSimulator(t, steane.VerifyAndCorrectProtocol(code), model).MonteCarlo(400000, 7)
	if verify.UncorrectableRate >= basic.UncorrectableRate {
		t.Errorf("verify-only MC rate (%v) should beat basic (%v)",
			verify.UncorrectableRate, basic.UncorrectableRate)
	}
	if vc.UncorrectableRate >= basic.UncorrectableRate {
		t.Errorf("verify-and-correct MC rate (%v) should beat basic (%v)",
			vc.UncorrectableRate, basic.UncorrectableRate)
	}
}

func TestMonteCarloDeterministicForSeed(t *testing.T) {
	code := steane.NewCode()
	s := mustSimulator(t, steane.VerifyOnlyProtocol(code), DefaultModel())
	a := s.MonteCarlo(20000, 99)
	b := s.MonteCarlo(20000, 99)
	if a != b {
		t.Errorf("same seed must give identical estimates: %+v vs %+v", a, b)
	}
	c := s.MonteCarlo(20000, 100)
	if a == c && a.UncorrectableRate != 0 {
		t.Log("different seeds gave identical estimates; acceptable but unusual")
	}
}

// The engine acceptance criterion: a parallel Monte Carlo run of the same
// seeded experiment must produce estimates byte-identical to the sequential
// run, for any worker count.
func TestMonteCarloParallelMatchesSequential(t *testing.T) {
	code := steane.NewCode()
	model := DefaultModel()
	// 3 full chunks plus a ragged tail exercises the chunk plan.
	trials := 3*8192 + 1234
	for name, p := range steane.StandardProtocols(code) {
		s := mustSimulator(t, p, model)
		seq, err := s.MonteCarloEngine(context.Background(), engine.Sequential(), trials, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{2, 7} {
			par, err := s.MonteCarloEngine(context.Background(), engine.New(workers), trials, 42)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if par != seq {
				t.Errorf("%s: %d-worker estimate %+v != sequential %+v", name, workers, par, seq)
			}
		}
		if plain := s.MonteCarlo(trials, 42); plain != seq {
			t.Errorf("%s: MonteCarlo %+v != engine sequential %+v", name, plain, seq)
		}
	}
}

func TestMonteCarloEngineCancellation(t *testing.T) {
	code := steane.NewCode()
	s := mustSimulator(t, steane.BasicZeroProtocol(code), DefaultModel())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.MonteCarloEngine(ctx, engine.New(2), 100000, 1); err == nil {
		t.Error("cancelled Monte Carlo must report the context error")
	}
}

func TestNewSimulatorRejectsBadInput(t *testing.T) {
	code := steane.NewCode()
	p := steane.BasicZeroProtocol(code)
	if _, err := NewSimulator(code, p, Model{GateError: 5}); err == nil {
		t.Error("invalid model should be rejected")
	}
	bad := steane.NewProtocol("bad", 8)
	bad.Ops = append(bad.Ops, steane.ProtocolOp{Kind: steane.OpVerify, MeasIDs: []int{3}})
	if _, err := NewSimulator(code, bad, DefaultModel()); err == nil {
		t.Error("invalid protocol should be rejected")
	}
}

func TestMonteCarloPanicsOnZeroTrials(t *testing.T) {
	code := steane.NewCode()
	s := mustSimulator(t, steane.BasicZeroProtocol(code), DefaultModel())
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero trials")
		}
	}()
	s.MonteCarlo(0, 1)
}

func TestLocationCountConsistency(t *testing.T) {
	code := steane.NewCode()
	model := DefaultModel()
	for name, p := range steane.StandardProtocols(code) {
		s := mustSimulator(t, p, model)
		if got, want := s.locationCount(), len(s.locationKinds()); got != want {
			t.Errorf("%s: locationCount %d != len(locationKinds) %d", name, got, want)
		}
		counts := p.CountOps()
		expected := counts.Total() + counts.TwoQubitGates*model.MovementOpsPerTwoQubitGate
		if got := s.locationCount(); got != expected {
			t.Errorf("%s: locationCount = %d, want %d", name, got, expected)
		}
	}
}

// Property: error rates scale roughly linearly with the gate error rate in
// the first-order analysis (exactly linearly, in fact, because every term is
// proportional to one location probability).
func TestFirstOrderLinearInGateError(t *testing.T) {
	code := steane.NewCode()
	p := steane.BasicZeroProtocol(code)
	f := func(scaleRaw uint8) bool {
		scale := float64(scaleRaw%9+1) / 5.0
		base := Model{GateError: 1e-4, MoveError: 0, MovementOpsPerTwoQubitGate: 0}
		scaled := Model{GateError: 1e-4 * scale, MoveError: 0, MovementOpsPerTwoQubitGate: 0}
		sBase, err := NewSimulator(code, p, base)
		if err != nil {
			return false
		}
		sScaled, err := NewSimulator(code, p, scaled)
		if err != nil {
			return false
		}
		a := sBase.FirstOrder().UncorrectableRate
		b := sScaled.FirstOrder().UncorrectableRate
		return math.Abs(b-a*scale) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: estimates are probabilities.
func TestEstimatesAreProbabilities(t *testing.T) {
	code := steane.NewCode()
	model := DefaultModel()
	for name, p := range steane.StandardProtocols(code) {
		s := mustSimulator(t, p, model)
		for _, est := range []Estimate{s.FirstOrder(), s.MonteCarlo(5000, 3)} {
			for _, v := range []float64{est.UncorrectableRate, est.ResidualRate, est.RejectRate} {
				if v < 0 || v > 1 {
					t.Errorf("%s: rate %v outside [0,1]", name, v)
				}
			}
		}
	}
}
