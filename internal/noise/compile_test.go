package noise

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"speedofdata/internal/engine"
	"speedofdata/internal/steane"
)

// allProtocols is the four Figure 4 protocols plus allOpsProtocol, so that
// the parity and statistics tests reach every arm of every executor.
func allProtocols(code steane.Code) map[string]*steane.Protocol {
	ps := steane.StandardProtocols(code)
	ps["all-ops"] = allOpsProtocol(code)
	return ps
}

// allOpsProtocol uses every op kind: three encoded zeros (prep, H, CX), S, T,
// X and Z on the output block and a CZ inside it, a cat-state verification
// (MeasureZ, Verify), then a bit correction (MeasureZ, CorrectX) and a phase
// correction (MeasureX, CorrectZ) of the output block by the other two.  The
// gates sit where errors from the encoders reach them, so faults propagate
// through every frame transform.
func allOpsProtocol(code steane.Code) *steane.Protocol {
	const n = steane.N
	p := steane.NewProtocol("all-ops test protocol", 3*n+3)
	var blocks [3][]int
	for b := range blocks {
		for i := 0; i < n; i++ {
			blocks[b] = append(blocks[b], b*n+i)
		}
		for _, q := range blocks[b] {
			p.Op(steane.OpPrepZero, q)
		}
		for _, row := range code.EncodingPivots() {
			p.Op(steane.OpH, blocks[b][row.Pivot])
		}
		for _, row := range code.EncodingPivots() {
			for _, target := range row.Targets {
				p.Op(steane.OpCX, blocks[b][row.Pivot], blocks[b][target])
			}
		}
	}
	out, bit, phase := blocks[0], blocks[1], blocks[2]
	p.Op(steane.OpS, out[6])
	p.Op(steane.OpT, out[5])
	p.Op(steane.OpX, out[4])
	p.Op(steane.OpZ, out[2])
	p.Op(steane.OpCZ, out[6], out[0])

	cat := []int{3 * n, 3*n + 1, 3*n + 2}
	for _, q := range cat {
		p.Op(steane.OpPrepZero, q)
	}
	p.Op(steane.OpH, cat[0])
	p.Op(steane.OpCX, cat[0], cat[1])
	p.Op(steane.OpCX, cat[1], cat[2])
	for i, q := range code.VerificationSupport() {
		p.Op(steane.OpCX, out[q], cat[i])
	}
	var verify []int
	for _, q := range cat {
		verify = append(verify, p.Measure(steane.OpMeasureZ, q))
	}
	p.Verify(verify...)

	var bitIDs, phaseIDs []int
	for i := 0; i < n; i++ {
		p.Op(steane.OpH, bit[i])
		p.Op(steane.OpCX, out[i], bit[i])
	}
	for i := 0; i < n; i++ {
		bitIDs = append(bitIDs, p.Measure(steane.OpMeasureZ, bit[i]))
	}
	p.Correct(steane.OpCorrectX, out, bitIDs)
	for i := 0; i < n; i++ {
		p.Op(steane.OpCX, phase[i], out[i])
	}
	for i := 0; i < n; i++ {
		phaseIDs = append(phaseIDs, p.Measure(steane.OpMeasureX, phase[i]))
	}
	p.Correct(steane.OpCorrectZ, out, phaseIDs)
	copy(p.OutputBlock[:], out)
	return p
}

// The op-list interpreter below is the oracle of the compiled program: the
// dense executor must match its Monte Carlo chunks byte for byte, and
// FirstOrder and the clean outcome must match its single-fault runs.

// injector decides which fault (if any) occurs at each error location of a
// protocol run.  Location indices are assigned in execution order and are
// stable across runs of the same protocol and model.
type injector interface {
	faultAt(loc int, kind LocationKind) Fault
}

// singleFaultInjector injects exactly one prescribed fault at one location,
// used by the deterministic first-order enumeration.
type singleFaultInjector struct {
	loc   int
	fault Fault
}

func (s *singleFaultInjector) faultAt(loc int, _ LocationKind) Fault {
	if loc == s.loc {
		return s.fault
	}
	return Fault{}
}

// frame is the Pauli frame of a run: X and Z error bitmasks over the
// protocol's physical qubits, plus recorded measurement-outcome flips.
type frame struct {
	x, z      uint64
	measFlips []bool
}

func (f *frame) hasX(q int) bool { return f.x&(1<<uint(q)) != 0 }
func (f *frame) hasZ(q int) bool { return f.z&(1<<uint(q)) != 0 }
func (f *frame) flipX(q int)     { f.x ^= 1 << uint(q) }
func (f *frame) flipZ(q int)     { f.z ^= 1 << uint(q) }
func (f *frame) clear(q int) {
	f.x &^= 1 << uint(q)
	f.z &^= 1 << uint(q)
}

func (f *frame) inject(q int, p PauliError) {
	if p.HasX() {
		f.flipX(q)
	}
	if p.HasZ() {
		f.flipZ(q)
	}
}

// runTrial executes the protocol once with the given fault injector and
// returns the outcome.  The trial propagates errors through every physical
// operation, honours verification rejections, and applies the
// classically-controlled corrections exactly as hardware would (including
// mis-corrections caused by errors on the measured ancilla block).
func (s *Simulator) runTrial(inj injector) TrialResult {
	fr := frame{measFlips: make([]bool, s.Protocol.NumMeasurements())}
	loc := 0
	rejected := false

	for _, op := range s.Protocol.Ops {
		switch op.Kind {
		case steane.OpPrepZero:
			q := op.Qubits[0]
			fr.clear(q)
			f := inj.faultAt(loc, LocPrep)
			loc++
			fr.inject(q, f.First)

		case steane.OpH:
			q := op.Qubits[0]
			// H exchanges X and Z errors.
			x, z := fr.hasX(q), fr.hasZ(q)
			if x != z {
				fr.flipX(q)
				fr.flipZ(q)
			}
			f := inj.faultAt(loc, LocOneQubit)
			loc++
			fr.inject(q, f.First)

		case steane.OpS, steane.OpT:
			q := op.Qubits[0]
			// S maps X to Y (adds a Z component when an X error is present).
			// T is treated the same way under the Pauli-twirl approximation.
			if op.Kind == steane.OpS && fr.hasX(q) {
				fr.flipZ(q)
			}
			f := inj.faultAt(loc, LocOneQubit)
			loc++
			fr.inject(q, f.First)

		case steane.OpX, steane.OpZ:
			// Pauli gates commute or anticommute with the frame; they do not
			// change which errors are present.
			f := inj.faultAt(loc, LocOneQubit)
			loc++
			fr.inject(op.Qubits[0], f.First)

		case steane.OpCX:
			c, t := op.Qubits[0], op.Qubits[1]
			// Movement to bring the two qubits together.
			for i := 0; i < s.Model.MovementOpsPerTwoQubitGate; i++ {
				mf := inj.faultAt(loc, LocMove)
				loc++
				if i%2 == 0 {
					fr.inject(c, mf.First)
				} else {
					fr.inject(t, mf.First)
				}
			}
			// CX propagates X from control to target and Z from target to control.
			if fr.hasX(c) {
				fr.flipX(t)
			}
			if fr.hasZ(t) {
				fr.flipZ(c)
			}
			f := inj.faultAt(loc, LocTwoQubit)
			loc++
			fr.inject(c, f.First)
			fr.inject(t, f.Second)

		case steane.OpCZ:
			a, b := op.Qubits[0], op.Qubits[1]
			for i := 0; i < s.Model.MovementOpsPerTwoQubitGate; i++ {
				mf := inj.faultAt(loc, LocMove)
				loc++
				if i%2 == 0 {
					fr.inject(a, mf.First)
				} else {
					fr.inject(b, mf.First)
				}
			}
			// CZ propagates X on either qubit into a Z on the other.
			if fr.hasX(a) {
				fr.flipZ(b)
			}
			if fr.hasX(b) {
				fr.flipZ(a)
			}
			f := inj.faultAt(loc, LocTwoQubit)
			loc++
			fr.inject(a, f.First)
			fr.inject(b, f.Second)

		case steane.OpMeasureZ, steane.OpMeasureX:
			q := op.Qubits[0]
			flipped := false
			if op.Kind == steane.OpMeasureZ {
				flipped = fr.hasX(q)
			} else {
				flipped = fr.hasZ(q)
			}
			f := inj.faultAt(loc, LocMeasure)
			loc++
			if f.FlipOutcome {
				flipped = !flipped
			}
			fr.measFlips[op.MeasID] = flipped
			// The measured qubit is recycled; its frame no longer matters.
			fr.clear(q)

		case steane.OpVerify:
			parity := false
			for _, id := range op.MeasIDs {
				if fr.measFlips[id] {
					parity = !parity
				}
			}
			if parity {
				rejected = true
			}

		case steane.OpCorrectX, steane.OpCorrectZ:
			var syndromePattern uint8
			for i, id := range op.MeasIDs {
				if fr.measFlips[id] {
					syndromePattern |= 1 << uint(i)
				}
			}
			correction := s.Code.CorrectionFor(s.Code.Syndrome(syndromePattern))
			for i := 0; i < steane.N; i++ {
				if correction&(1<<uint(i)) == 0 {
					continue
				}
				q := op.Qubits[i]
				if op.Kind == steane.OpCorrectX {
					fr.flipX(q)
				} else {
					fr.flipZ(q)
				}
				// The applied correction is itself a physical gate and can fail.
				f := inj.faultAt(loc, LocOneQubit)
				loc++
				fr.inject(q, f.First)
			}

		default:
			panic(fmt.Sprintf("noise: unhandled protocol op %v", op.Kind))
		}
	}

	var xOut, zOut uint8
	for i, q := range s.Protocol.OutputBlock {
		if fr.hasX(q) {
			xOut |= 1 << uint(i)
		}
		if fr.hasZ(q) {
			zOut |= 1 << uint(i)
		}
	}
	return TrialResult{
		Rejected: rejected,
		// The output is an encoded |0> ancilla: only a surviving logical X
		// (flipped bit value) is fatal, and frames that are stabilizers of
		// |0>_L are not errors at all (see steane.IsUncorrectableZeroAncilla).
		Uncorrectable: s.Code.IsUncorrectableZeroAncilla(xOut, zOut),
		Residual:      !s.Code.IsHarmlessOnZeroAncilla(xOut, zOut),
	}
}

// locationCount walks the protocol once and returns how many error locations
// it contains under the current model (movement included).
func (s *Simulator) locationCount() int {
	count := 0
	for _, op := range s.Protocol.Ops {
		switch {
		case op.Kind == steane.OpVerify:
			// no error locations
		case op.Kind == steane.OpCorrectX || op.Kind == steane.OpCorrectZ:
			// correction locations depend on the syndrome; for enumeration we
			// conservatively skip them (they are second-order anyway).
		case op.Kind.IsTwoQubit():
			count += 1 + s.Model.MovementOpsPerTwoQubitGate
		case op.Kind.IsPhysical():
			count++
		}
	}
	return count
}

// locationKinds returns the kind of every enumerable error location in order.
func (s *Simulator) locationKinds() []LocationKind {
	var kinds []LocationKind
	for _, op := range s.Protocol.Ops {
		switch {
		case op.Kind == steane.OpVerify, op.Kind == steane.OpCorrectX, op.Kind == steane.OpCorrectZ:
			// skip (see locationCount)
		case op.Kind.IsTwoQubit():
			for i := 0; i < s.Model.MovementOpsPerTwoQubitGate; i++ {
				kinds = append(kinds, LocMove)
			}
			kinds = append(kinds, LocTwoQubit)
		case op.Kind == steane.OpPrepZero:
			kinds = append(kinds, LocPrep)
		case op.Kind.IsMeasurement():
			kinds = append(kinds, LocMeasure)
		case op.Kind.IsPhysical():
			kinds = append(kinds, LocOneQubit)
		}
	}
	return kinds
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

// firstOrderLegacy is the interpreter's single-fault enumeration, the
// oracle FirstOrder must match under ==.
func (s *Simulator) firstOrderLegacy() Estimate {
	kinds := s.locationKinds()
	var uncorrectable, residual, reject float64
	for loc, kind := range kinds {
		p := s.Model.ErrorProbability(kind)
		if p == 0 {
			continue
		}
		choices := FaultChoices(kind)
		perChoice := p / float64(len(choices))
		for _, f := range choices {
			r := s.runTrial(&singleFaultInjector{loc: loc, fault: f})
			switch {
			case r.Rejected:
				reject += perChoice
			default:
				if r.Uncorrectable {
					uncorrectable += perChoice
				}
				if r.Residual {
					residual += perChoice
				}
			}
		}
	}
	return Estimate{
		UncorrectableRate: uncorrectable,
		ResidualRate:      residual,
		RejectRate:        reject,
	}
}

// String names the Pauli fault.
func (p PauliError) String() string {
	switch p {
	case PauliNone:
		return "I"
	case PauliX:
		return "X"
	case PauliY:
		return "Y"
	case PauliZ:
		return "Z"
	default:
		return fmt.Sprintf("pauli(%d)", int(p))
	}
}

// String names the location kind.
func (k LocationKind) String() string {
	switch k {
	case LocPrep:
		return "prep"
	case LocOneQubit:
		return "1q-gate"
	case LocTwoQubit:
		return "2q-gate"
	case LocMeasure:
		return "measure"
	case LocMove:
		return "move"
	default:
		return fmt.Sprintf("loc(%d)", int(k))
	}
}

// LocationContribution describes, for one error location, how many of the
// equally likely faults at that location lead to each outcome.  It is used by
// FirstOrderBreakdown to explain where a protocol's error rate comes from.
type LocationContribution struct {
	// Index is the location index in execution order.
	Index int
	// Kind is the location kind (prep, gate, measurement, movement).
	Kind LocationKind
	// Op describes the protocol operation the location belongs to.
	Op string
	// Choices is the number of equally likely faults at this location.
	Choices int
	// Uncorrectable, Residual and Rejected count fault choices leading to
	// each outcome (rejected runs are not counted as uncorrectable/residual).
	Uncorrectable, Residual, Rejected int
}

// FirstOrderBreakdown enumerates every single fault on the compiled program
// and reports the per-location outcome counts, which is the detail behind
// FirstOrder.  Only locations with at least one non-benign outcome are
// returned.
func (s *Simulator) FirstOrderBreakdown() []LocationContribution {
	prog, _ := s.compiled()
	ops := s.locationOps()
	var out []LocationContribution
	for loc, ii := range prog.locInstr {
		kind := LocationKind(prog.ops[ii].kind)
		choices := choicesByKind[kind]
		contrib := LocationContribution{Index: loc, Kind: kind, Op: ops[loc], Choices: len(choices)}
		for _, f := range choices {
			r := prog.forced(loc, f)
			switch {
			case r.Rejected:
				contrib.Rejected++
			default:
				if r.Uncorrectable {
					contrib.Uncorrectable++
				}
				if r.Residual {
					contrib.Residual++
				}
			}
		}
		if contrib.Uncorrectable > 0 || contrib.Residual > 0 || contrib.Rejected > 0 {
			out = append(out, contrib)
		}
	}
	return out
}

// locationOps returns a short description of the protocol op behind each
// enumerable error location, aligned with locationKinds.
func (s *Simulator) locationOps() []string {
	var ops []string
	for i, op := range s.Protocol.Ops {
		desc := fmt.Sprintf("#%d %s %v", i, op.Kind, op.Qubits)
		switch {
		case op.Kind == steane.OpVerify, op.Kind == steane.OpCorrectX, op.Kind == steane.OpCorrectZ:
			// skip
		case op.Kind.IsTwoQubit():
			for j := 0; j < s.Model.MovementOpsPerTwoQubitGate; j++ {
				ops = append(ops, desc+" (move)")
			}
			ops = append(ops, desc)
		case op.Kind.IsPhysical():
			ops = append(ops, desc)
		}
	}
	return ops
}

// FirstOrder and the clean outcome run on the compiled program's forced
// entry; the interpreter is their oracle.  Both must agree exactly, under
// ==, on every protocol, under the dense parity models.
func TestFirstOrderMatchesInterpreter(t *testing.T) {
	code := steane.NewCode()
	for name, p := range allProtocols(code) {
		for _, model := range denseParityModels {
			s := mustSimulator(t, p, model)
			if got, want := s.FirstOrder(), s.firstOrderLegacy(); got != want {
				t.Errorf("%s model %+v: FirstOrder %+v != interpreter %+v", name, model, got, want)
			}
			prog, _ := s.compiled()
			if want := s.runTrial(&singleFaultInjector{loc: -1}); prog.clean != want {
				t.Errorf("%s model %+v: clean outcome %+v != interpreter %+v", name, model, prog.clean, want)
			}
		}
	}
}

// FirstOrderBreakdown is FirstOrder location by location: weighting its
// counts by each location's per-choice probability gives FirstOrder back.
func TestFirstOrderBreakdownSumsToFirstOrder(t *testing.T) {
	code := steane.NewCode()
	for name, p := range allProtocols(code) {
		s := mustSimulator(t, p, DefaultModel())
		var got Estimate
		for _, c := range s.FirstOrderBreakdown() {
			w := s.Model.ErrorProbability(c.Kind) / float64(c.Choices)
			got.UncorrectableRate += w * float64(c.Uncorrectable)
			got.ResidualRate += w * float64(c.Residual)
			got.RejectRate += w * float64(c.Rejected)
		}
		want := s.FirstOrder()
		for _, r := range [][2]float64{
			{got.UncorrectableRate, want.UncorrectableRate},
			{got.ResidualRate, want.ResidualRate},
			{got.RejectRate, want.RejectRate},
		} {
			if math.Abs(r[0]-r[1]) > 1e-12*r[1] {
				t.Errorf("%s: breakdown sums to %+v, FirstOrder is %+v", name, got, want)
				break
			}
		}
	}
}

// denseParityModels are the models the dense executor is held to the
// interpreter on.  Besides the paper's rates and two heavy ones, they place
// the scan's window edges: locations that draw nothing between drawing ones
// (gate error 0), the largest threshold on moves rather than gates, and a
// threshold equal to lfRetryMin (gate error 1), which empties the window so
// that every value takes the exact path.
var denseParityModels = []Model{
	DefaultModel(),
	{GateError: 1e-2, MoveError: 1e-3, MovementOpsPerTwoQubitGate: 2},
	{GateError: 0.3, MoveError: 0, MovementOpsPerTwoQubitGate: 0},
	{GateError: 0, MoveError: 1e-3, MovementOpsPerTwoQubitGate: 3},
	{GateError: 1e-5, MoveError: 1e-2, MovementOpsPerTwoQubitGate: 6},
	{GateError: 1, MoveError: 1e-6, MovementOpsPerTwoQubitGate: 1},
}

// The golden acceptance test of the compiled Monte Carlo: for every protocol
// and several seeds, the compiled dense chunk must tally byte-identical
// outcomes to the legacy interpreter chunk driven by the same RNG stream.
// A single-trial chunk and a full one hold the scan's chunk end, and the
// bulk clean tally it ends on, to the interpreter.
func TestDenseChunkMatchesLegacyChunk(t *testing.T) {
	code := steane.NewCode()
	for name, p := range allProtocols(code) {
		for _, model := range denseParityModels {
			s := mustSimulator(t, p, model)
			prog, _ := s.compiled()
			for _, seed := range []int64{1, 2, 42, -9, 1 << 50} {
				for _, trials := range []int{1, 3000, mcChunkTrials} {
					legacy := s.monteCarloChunkLegacy(rand.New(rand.NewSource(seed)), trials)
					var lf lfRand
					lf.capture(rand.New(rand.NewSource(seed)))
					if compiled := prog.denseChunk(&lf, trials); legacy != compiled {
						t.Errorf("%s model %+v seed %d, %d trials: compiled %+v != legacy %+v",
							name, model, seed, trials, compiled, legacy)
					}
				}
			}
		}
	}
}

// scanToFaultPerLocation draws a trial's location values one at a time,
// resample included, and compares each with its own static location's
// threshold, rebuilt from locInstr and the ops.  It returns the first
// faulty location, or nStatic when the trial is fault-free.
func (p *trialProgram) scanToFaultPerLocation(rng *lfRand) int {
	for i, ii := range p.locInstr {
		th := p.ops[ii].vthresh
		if p.ops[ii].op == cMoveRun {
			th = p.moveVThresh
		}
		// th < 0 is p <= 0: the interpreter draws nothing here.
		if th >= 0 && rng.draw() < th {
			return i
		}
	}
	return p.nStatic
}

// denseChunkPerTrial is denseChunk's oracle: one trial at a time, each
// scanned location by location.
func (p *trialProgram) denseChunkPerTrial(rng *lfRand, trials int) mcCounts {
	meas := make([]uint64, p.measWords)
	var c mcCounts
	for i := 0; i < trials; i++ {
		if k := p.scanToFaultPerLocation(rng); k < p.nStatic {
			c.tally(p.runDenseFrom(rng, meas, k))
		} else {
			c.tally(p.clean)
		}
	}
	return c
}

// denseChunk's positional scan must decide every value as the per-trial
// oracle does, including the values outside the window that no seeded
// stream reaches in a test (a resample fires with probability 2⁻⁵⁴ per
// draw).  Each case plants the chunk's first 607 values.  Under the first
// fill every draw holds its location's own threshold, the smallest value
// that does not fault there, so most values take the exact path; under the
// second every draw holds maxTh, inside the window, so one scan crosses
// trial boundaries up to the planted value.  One draw, at the start of a
// trial, its end, or just past the first trial boundary, holds a boundary
// value instead, with and without the sign bit the scan masks off.  Both
// chunks must tally the same outcomes and leave equal generators.
func TestDenseChunkMatchesPerTrialOracleOnPlantedValues(t *testing.T) {
	code := steane.NewCode()
	faulty, clean := 0, 0
	for name, p := range allProtocols(code) {
		for _, model := range denseParityModels {
			prog, _ := mustSimulator(t, p, model).compiled()
			th, nd := prog.drawTh, len(prog.drawTh)
			for _, fill := range []struct {
				name  string
				value func(j int) int64
			}{
				{"own threshold", func(j int) int64 { return th[j%nd] }},
				{"maxTh", func(int) int64 { return prog.maxTh }},
			} {
				var base [lfLen]int64
				for j := range base {
					base[j] = fill.value(j)
				}
				for _, slot := range []int{0, 1, nd - 1, nd, nd + 1, lfLen - 1} {
					if slot >= lfLen {
						continue
					}
					d := slot % nd
					for _, v := range []int64{
						0, th[d] - 1, th[d], th[d] + 1,
						prog.maxTh - 1, prog.maxTh, prog.maxTh + 1,
						lfRetryMin - 1, lfRetryMin, lfRetryMin + 1, lfMask,
					} {
						for _, sign := range []int64{0, math.MinInt64} {
							want := base
							want[slot] = v | sign
							var start lfRand
							start.plant(&want)
							for _, trials := range []int{1, 2, 3, 9} {
								a, b := start, start
								got, exp := prog.denseChunk(&a, trials), prog.denseChunkPerTrial(&b, trials)
								if got != exp || a != b {
									t.Fatalf("%s model %+v, %s fill, %#x planted at draw %d, %d trials: chunk %+v (cursors %d/%d), oracle %+v (cursors %d/%d)",
										name, model, fill.name, v|sign, slot, trials, got, a.tap, a.feed, exp, b.tap, b.feed)
								}
								var allClean mcCounts
								allClean.tallyN(prog.clean, trials)
								if exp == allClean {
									clean++
								} else {
									faulty++
								}
							}
						}
					}
				}
			}
		}
	}
	if faulty == 0 || clean == 0 {
		t.Errorf("planted chunks: %d with a faulty outcome, %d all clean; the test must reach both", faulty, clean)
	}
}

// The decode tables split a frame's outcome by Pauli plane.  For every one
// of the 2¹⁴ output frames their OR must equal the flags of the two decode
// predicates.
func TestDecodeTablesMatchPredicates(t *testing.T) {
	code := steane.NewCode()
	prog, _ := mustSimulator(t, steane.BasicZeroProtocol(code), DefaultModel()).compiled()
	for x := 0; x < 1<<steane.N; x++ {
		for z := 0; z < 1<<steane.N; z++ {
			var want uint8
			if code.IsUncorrectableZeroAncilla(uint8(x), uint8(z)) {
				want |= outUncorrectable
			}
			if !code.IsHarmlessOnZeroAncilla(uint8(x), uint8(z)) {
				want |= outResidual
			}
			if got := prog.xOutcome[x] | prog.zOutcome[z]; got != want {
				t.Fatalf("frame x=%#x z=%#x: tables give flags %#x, predicates %#x", x, z, got, want)
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
				binomialSE(d.RejectRate, trials),
				binomialSE(s.RejectRate, trials)},
		} {
			if err := compatible(name+" "+c.what, c.sv, c.se, c.dv, c.de, 3); err != nil {
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
	if err := compatibleOneSided("basic uncorrectable", mc.UncorrectableRate, mc.StdErr,
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

// The dense executor is the hottest code in the repository and must not
// allocate: one allocation per trial was a measurable share of the legacy
// profile.  execDense runs the faulty trials; a whole chunk adds the scan
// that every trial runs.
func TestRunDenseAllocations(t *testing.T) {
	code := steane.NewCode()
	s := mustSimulator(t, steane.VerifyAndCorrectProtocol(code), DefaultModel())
	prog, _ := s.compiled()
	var lf lfRand
	lf.capture(rand.New(rand.NewSource(1)))
	meas := make([]uint64, prog.measWords)
	allocs := testing.AllocsPerRun(200, func() {
		clear(meas)
		prog.execDense(&lf, meas, 0, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("execDense allocations = %v per trial, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(3, func() {
		prog.denseChunk(&lf, mcChunkTrials)
	})
	if allocs != 0 {
		t.Fatalf("denseChunk allocations = %v per %d-trial chunk, want 0", allocs, mcChunkTrials)
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
