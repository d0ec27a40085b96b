package noise

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"speedofdata/internal/steane"
)

// This file compiles a (steane.Protocol, Model) pair into a flat trial
// program, the only form in which a protocol runs outside the tests: the
// Monte Carlo hot path, the first-order enumeration and the clean outcome.
// The op-list interpreter kept in compile_test.go as the oracle walks the
// protocol through an injector interface, allocates a measFlips slice per
// trial and re-derives each location's error probability and fault choices
// on every visit.  The compiled form precomputes all of that once:
//
//   - one dense instruction per physical operation, with the location's
//     fault decision precompiled to a single integer compare against the raw
//     RNG value (see intThreshold) and the per-gate movement ops fused into
//     one run instruction;
//   - measurement flips bit-packed into uint64 words, with verification
//     parity masks and correction syndrome tables precomputed;
//   - the decode outcome of every possible output frame tabulated as two
//     128-entry halves, one per Pauli plane, so a trial ends in two lookups
//     and an OR;
//   - the locations that draw listed once in location order, with the
//     program's largest threshold, so the chunk's fault scan tests each
//     value against one window;
//   - RNG draws devirtualised through lfRand, whose scan computes the fault
//     scan's values in place and tests each as it goes, across trial
//     boundaries.
//
// The dense executor consumes random values in exactly the order the
// interpreter does, so its estimates are byte-identical for the same seed
// (golden-tested).  A quiet copy of the program, with every fault threshold
// disabled so that execDense draws nothing, runs one prescribed fault at a
// time (forced): FirstOrder enumerates single faults on it and the clean
// outcome is its fault-free run.  The sparse executor gives up the
// interpreter's stream order for speed:
// it samples the set of faulty locations directly (geometric skips within
// groups of equal-probability locations), short-circuits fault-free trials
// to the precomputed clean outcome, and starts execution at the first faulty
// instruction — statistically exact, validated against the dense path and
// the first-order oracle.

// Instruction opcodes.  Location-bearing instructions carry static error
// locations; verify/correct are classical.
const (
	cPrep uint8 = iota
	cHad
	cPhaseS
	cInject  // T/X/Z: a location with no frame transform
	cMoveRun // the fused movement ops preceding one two-qubit gate
	cCX
	cCZ
	cMeasZ
	cMeasX
	cVerify
	cCorrectX
	cCorrectZ
)

// pinstr is one compiled instruction.
type pinstr struct {
	op      uint8
	kind    uint8  // LocationKind of the instruction's error location(s)
	q0, q1  uint8  // operand qubits
	meas    uint16 // measurement bit index (cMeas*) or move count (cMoveRun)
	aux     uint16 // verifyMasks / corrects index (cVerify/cCorrect*)
	loc     int32  // first static location index, -1 for classical instrs
	vthresh int64
	// vthresh is the location's fault decision as an integer threshold on
	// the raw 63-bit RNG value (fault iff value < vthresh, exactly
	// equivalent to Float64() < p), or -1 when no draw happens here: p <= 0
	// locations (the interpreter skips the RNG draw entirely in that case,
	// so the compiled path must too to keep the streams aligned), classical
	// instructions, and cMoveRun (which draws per move against the shared
	// moveVThresh).
}

// correctData is the precomputed operand table of one correction step.
type correctData struct {
	qubits [steane.N]uint8
	meas   [steane.N]uint16
}

// Outcome flag bits of the decode tables.  A frame's flags are
// xOutcome[x] | zOutcome[z] (see outcomeFlags).
const (
	outUncorrectable = 1 << 0
	outResidual      = 1 << 1
)

// probClass groups static locations that share one fault probability, for
// the sparse sampler's geometric skipping.
type probClass struct {
	prob      float64
	invLogQ   float64 // 1 / ln(1-p), negative; multiplies ln(U) into a skip
	allFaulty bool    // p >= 1: every location in the class faults
	locs      []int32
}

// trialProgram is a compiled (protocol, model) pair.  It is immutable after
// compile and safe for concurrent executors.
type trialProgram struct {
	ops         []pinstr
	nStatic     int // static error locations (== the interpreter's locationCount)
	measWords   int
	verifyMasks [][]uint64
	corrects    []correctData
	correction  [1 << steane.N]uint8 // syndrome pattern -> correction mask
	xOutcome    [1 << steane.N]uint8 // output X pattern -> outcome flags (z = 0)
	zOutcome    [1 << steane.N]uint8 // output Z pattern -> outcome flags (x = 0)
	output      [steane.N]uint8
	moveVThresh int64 // fault threshold of movement ops (cMoveRun)
	corrVThresh int64 // fault threshold of correction gates (LocOneQubit)
	corrProb    float64
	classes     []probClass
	locInstr    []int32 // static location index -> instruction index
	// drawTh and drawLoc list the static locations that draw a value
	// (p > 0) in location order: drawTh[d] is the integer fault threshold
	// of location drawLoc[d].  maxTh is the largest of them, so a value in
	// [maxTh, lfRetryMin) faults nowhere and needs no resample: the scan's
	// window.
	drawTh  []int64
	drawLoc []int32
	maxTh   int64
	clean   TrialResult // outcome of a fault-free run
	// quiet is this program with every fault threshold at -1: execDense
	// on it draws nothing, so forced trials are deterministic.
	quiet *trialProgram
}

// choicesByKind caches FaultChoices per location kind so the executors index
// a table instead of allocating a fresh slice at every faulty location.
var choicesByKind = [...][]Fault{
	LocPrep:     FaultChoices(LocPrep),
	LocOneQubit: FaultChoices(LocOneQubit),
	LocTwoQubit: FaultChoices(LocTwoQubit),
	LocMeasure:  FaultChoices(LocMeasure),
	LocMove:     FaultChoices(LocMove),
}

// lfRetryMin is the smallest raw 63-bit value whose Float64 image rounds up
// to 1.0 — math/rand resamples those, so the integer draw must too.
var lfRetryMin = minValueReaching(lfTwo63)

// minValueReaching returns the smallest non-negative v <= lfMask with
// float64(v) >= bound (lfMask+1 if none), by monotonicity of the conversion.
func minValueReaching(bound float64) int64 {
	lo, hi := int64(0), int64(lfMask)
	if float64(hi) < bound {
		return hi + 1
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid) >= bound {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// intThreshold compiles a location probability into an integer threshold on
// the raw 63-bit RNG value: fault iff value < intThreshold(p), which is
// exactly `Float64() < p` because float64(v)·2⁻⁶³ is monotone in v and
// p·2⁶³ is computed exactly (a power-of-two scale).  Returns -1 for p <= 0,
// where the interpreter draws nothing.
func intThreshold(p float64) int64 {
	if p <= 0 {
		return -1
	}
	return minValueReaching(p * lfTwo63)
}

// compile builds the trial program.  The protocol and model are the
// Simulator's own (already validated).
func compileProgram(code steane.Code, p *steane.Protocol, m Model) *trialProgram {
	prog := &trialProgram{
		measWords:   (p.NumMeasurements() + 63) / 64,
		moveVThresh: intThreshold(m.ErrorProbability(LocMove)),
		corrVThresh: intThreshold(m.ErrorProbability(LocOneQubit)),
		corrProb:    m.ErrorProbability(LocOneQubit),
	}
	loc := int32(0)
	// classLoc registers one static location for the sparse sampler.
	classLoc := func(kind LocationKind) {
		prob := m.ErrorProbability(kind)
		prog.locInstr = append(prog.locInstr, int32(len(prog.ops)))
		prog.addDraw(loc, intThreshold(prob))
		loc++
		prog.addToClass(prob, loc-1, 1)
	}
	emitLoc := func(in pinstr, kind LocationKind) {
		in.kind = uint8(kind)
		in.loc = loc
		in.vthresh = intThreshold(m.ErrorProbability(kind))
		classLoc(kind)
		prog.ops = append(prog.ops, in)
	}
	for _, op := range p.Ops {
		switch op.Kind {
		case steane.OpPrepZero:
			emitLoc(pinstr{op: cPrep, q0: uint8(op.Qubits[0])}, LocPrep)
		case steane.OpH:
			emitLoc(pinstr{op: cHad, q0: uint8(op.Qubits[0])}, LocOneQubit)
		case steane.OpS:
			emitLoc(pinstr{op: cPhaseS, q0: uint8(op.Qubits[0])}, LocOneQubit)
		case steane.OpT, steane.OpX, steane.OpZ:
			// T is twirled to an injection-only location; Paulis commute with
			// the frame.  All three execute identically.
			emitLoc(pinstr{op: cInject, q0: uint8(op.Qubits[0])}, LocOneQubit)
		case steane.OpCX, steane.OpCZ:
			a, b := uint8(op.Qubits[0]), uint8(op.Qubits[1])
			if k := m.MovementOpsPerTwoQubitGate; k > 0 {
				// One fused instruction for the k movement ops; the executor
				// draws per move, alternating the injection target a,b,a,...
				run := pinstr{op: cMoveRun, kind: uint8(LocMove), q0: a, q1: b,
					meas: uint16(k), loc: loc, vthresh: -1}
				prog.ops = append(prog.ops, run)
				// The k fused locations all map to the one run instruction
				// just emitted (classLoc would point past it).
				for i := 0; i < k; i++ {
					prog.locInstr = append(prog.locInstr, int32(len(prog.ops)-1))
					prog.addDraw(loc, prog.moveVThresh)
					loc++
				}
				prog.addToClass(m.ErrorProbability(LocMove), loc-int32(k), k)
			}
			gate := cCX
			if op.Kind == steane.OpCZ {
				gate = cCZ
			}
			emitLoc(pinstr{op: gate, q0: a, q1: b}, LocTwoQubit)
		case steane.OpMeasureZ, steane.OpMeasureX:
			gate := cMeasZ
			if op.Kind == steane.OpMeasureX {
				gate = cMeasX
			}
			emitLoc(pinstr{op: gate, q0: uint8(op.Qubits[0]), meas: uint16(op.MeasID)}, LocMeasure)
		case steane.OpVerify:
			mask := make([]uint64, prog.measWords)
			for _, id := range op.MeasIDs {
				mask[id>>6] |= 1 << (uint(id) & 63)
			}
			prog.ops = append(prog.ops, pinstr{op: cVerify, aux: uint16(len(prog.verifyMasks)), loc: -1, vthresh: -1})
			prog.verifyMasks = append(prog.verifyMasks, mask)
		case steane.OpCorrectX, steane.OpCorrectZ:
			var cd correctData
			for i := 0; i < steane.N; i++ {
				cd.qubits[i] = uint8(op.Qubits[i])
				cd.meas[i] = uint16(op.MeasIDs[i])
			}
			gate := cCorrectX
			if op.Kind == steane.OpCorrectZ {
				gate = cCorrectZ
			}
			prog.ops = append(prog.ops, pinstr{op: gate, aux: uint16(len(prog.corrects)), loc: -1, vthresh: -1})
			prog.corrects = append(prog.corrects, cd)
		default:
			panic(fmt.Sprintf("noise: unhandled protocol op %v", op.Kind))
		}
	}
	prog.nStatic = int(loc)
	for i := range prog.output {
		prog.output[i] = uint8(p.OutputBlock[i])
	}
	for pat := 0; pat < 1<<steane.N; pat++ {
		prog.correction[pat] = code.CorrectionFor(code.Syndrome(uint8(pat)))
	}
	for m := 0; m < 1<<steane.N; m++ {
		prog.xOutcome[m] = outcomeFlags(code, uint8(m), 0)
		prog.zOutcome[m] = outcomeFlags(code, 0, uint8(m))
	}
	quiet := *prog
	quiet.ops = slices.Clone(prog.ops)
	for i := range quiet.ops {
		quiet.ops[i].vthresh = -1
	}
	quiet.moveVThresh, quiet.corrVThresh = -1, -1
	prog.quiet = &quiet
	prog.clean = prog.forced(-1, Fault{})
	return prog
}

// outcomeFlags is the decode outcome of output frame (x, z).  The two
// predicates split by plane: IsUncorrectableZeroAncilla reads only x, and
// IsHarmlessOnZeroAncilla is IsStabilizer(x) && Syndrome(z) == 0.  So a
// frame's flags are outcomeFlags(x, 0) | outcomeFlags(0, z), which is how
// the executors read them (xOutcome[x] | zOutcome[z]).
func outcomeFlags(code steane.Code, x, z uint8) uint8 {
	var f uint8
	if code.IsUncorrectableZeroAncilla(x, z) {
		f |= outUncorrectable
	}
	if !code.IsHarmlessOnZeroAncilla(x, z) {
		f |= outResidual
	}
	return f
}

// addDraw lists static location loc in the scan's table when it draws
// (threshold t >= 0; the interpreter draws nothing at p <= 0).
func (p *trialProgram) addDraw(loc int32, t int64) {
	if t < 0 {
		return
	}
	p.drawTh = append(p.drawTh, t)
	p.drawLoc = append(p.drawLoc, loc)
	p.maxTh = max(p.maxTh, t)
}

// forced runs one trial whose only fault is choice f at static location loc
// (no fault at all when loc < 0), on the quiet program.  Everything before
// loc is clean (transforms on an empty frame are no-ops, measurements record
// zeros, verifies pass and corrections do nothing), so the trial starts at
// loc's instruction with f injected where execDense would have drawn it,
// and execDense finishes it.
func (p *trialProgram) forced(loc int, f Fault) TrialResult {
	q := p.quiet
	var rng lfRand // never read: no threshold of q admits a draw
	meas := make([]uint64, q.measWords)
	if loc < 0 {
		return q.execDense(&rng, meas, 0, 0, 0)
	}
	ii := int(q.locInstr[loc])
	in := &q.ops[ii]
	var x, z uint64
	if in.op == cMeasZ || in.op == cMeasX {
		// The clean outcome is 0; a measurement fault flips it.
		if f.FlipOutcome {
			meas[in.meas>>6] |= 1 << (in.meas & 63)
		}
		return q.execDense(&rng, meas, ii+1, x, z)
	}
	// The first Pauli lands on q0 (on q1 for the odd moves of a run), the
	// second, which only two-qubit gates have, on q1.
	b := uint64(1) << in.q0
	if in.op == cMoveRun && (loc-int(in.loc))&1 == 1 {
		b = uint64(1) << in.q1
	}
	if f.First.HasX() {
		x ^= b
	}
	if f.First.HasZ() {
		z ^= b
	}
	if f.Second.HasX() {
		x ^= 1 << in.q1
	}
	if f.Second.HasZ() {
		z ^= 1 << in.q1
	}
	return q.execDense(&rng, meas, ii+1, x, z)
}

// addToClass registers k consecutive static locations starting at base with
// the probability class for prob, creating the class on first sight.
// Locations with p <= 0 never fault and are not registered.
func (p *trialProgram) addToClass(prob float64, base int32, k int) {
	if prob <= 0 {
		return
	}
	ci := -1
	for i := range p.classes {
		if p.classes[i].prob == prob {
			ci = i
			break
		}
	}
	if ci < 0 {
		c := probClass{prob: prob, allFaulty: prob >= 1}
		if !c.allFaulty {
			c.invLogQ = 1 / math.Log1p(-prob)
		}
		p.classes = append(p.classes, c)
		ci = len(p.classes) - 1
	}
	for i := 0; i < k; i++ {
		p.classes[ci].locs = append(p.classes[ci].locs, base+int32(i))
	}
}

// runDenseFrom finishes a dense trial whose scan found its first fault at
// static location k (the value draw for k is already consumed; the fault's
// choice draw is not).  Everything before k is clean — transforms on an
// empty frame are no-ops, measurements record zeros, verifies pass and
// corrections do nothing — so execution starts at k's instruction with the
// forced fault injected and proceeds live (value and choice draws in
// interpreter order) from there.
func (p *trialProgram) runDenseFrom(rng *lfRand, meas []uint64, k int) TrialResult {
	var x, z uint64
	for i := range meas {
		meas[i] = 0
	}
	ii := int(p.locInstr[k])
	in := &p.ops[ii]
	switch in.op {
	case cMoveRun:
		// Forced fault at move offset k-loc; later moves of the run draw
		// live, earlier ones were consumed by the scan.
		j0 := k - int(in.loc)
		x, z = p.injectMove(rng, in, j0, x, z)
		for j := j0 + 1; j < int(in.meas); j++ {
			if rng.draw() < p.moveVThresh {
				x, z = p.injectMove(rng, in, j, x, z)
			}
		}
	case cMeasZ, cMeasX:
		// A forced measurement fault flips the (clean) outcome; the choice
		// draw still happens to keep the stream aligned.
		rng.intn(len(choicesByKind[LocMeasure]))
		meas[in.meas>>6] |= 1 << (in.meas & 63)
	default:
		ch := choicesByKind[in.kind]
		f := ch[rng.intn(len(ch))]
		b := uint64(1) << in.q0
		if f.First.HasX() {
			x ^= b
		}
		if f.First.HasZ() {
			z ^= b
		}
		if in.kind == uint8(LocTwoQubit) {
			b = uint64(1) << in.q1
			if f.Second.HasX() {
				x ^= b
			}
			if f.Second.HasZ() {
				z ^= b
			}
		}
	}
	return p.execDense(rng, meas, ii+1, x, z)
}

// injectMove draws the fault choice for move j of a fused run and injects
// it on the run's alternating operand.
func (p *trialProgram) injectMove(rng *lfRand, in *pinstr, j int, x, z uint64) (uint64, uint64) {
	ch := choicesByKind[LocMove]
	f := ch[rng.intn(len(ch))]
	b := uint64(1) << in.q0
	if j&1 == 1 {
		b = uint64(1) << in.q1
	}
	if f.First.HasX() {
		x ^= b
	}
	if f.First.HasZ() {
		z ^= b
	}
	return x, z
}

// execDense interprets ops[startII:] with the given initial frame, drawing
// value and choice draws in interpreter order.  The loop performs zero heap
// allocations (guarded by TestRunDenseAllocations).  meas holds the
// measurement flips recorded so far.
//
// The per-location fault draw sits below the op switch: frame transforms
// consume no randomness, so drawing after them leaves the value stream
// untouched while giving the loop a single shared draw site.  Only faulty
// trials draw here (the chunk's scan passes the fault-free ones, and the
// quiet program of forced trials draws nothing), so each value comes from
// the scalar lfRand.draw.
func (p *trialProgram) execDense(rng *lfRand, meas []uint64, startII int, x, z uint64) TrialResult {
	rejected := false
	ops := p.ops
	for ii := startII; ii < len(ops); ii++ {
		in := &ops[ii]
		// The switch applies the op's frame transform; instructions with
		// non-uniform draw patterns (movement runs, measurements, classical
		// steps) handle themselves and skip the shared draw site below.
		switch in.op {
		case cPrep:
			b := uint64(1) << in.q0
			x &^= b
			z &^= b
		case cHad:
			b := uint64(1) << in.q0
			// H exchanges X and Z errors.
			if (x&b != 0) != (z&b != 0) {
				x ^= b
				z ^= b
			}
		case cPhaseS:
			// S maps X to Y (adds a Z component when an X error is present).
			if x&(1<<in.q0) != 0 {
				z ^= 1 << in.q0
			}
		case cInject:
			// No transform; the shared draw site does the rest.
		case cMoveRun:
			// The fused movement ops of one two-qubit gate: one draw per
			// move (skipped entirely when movement is error-free, exactly
			// like the interpreter), injecting on alternating operands.
			if p.moveVThresh >= 0 {
				for j := 0; j < int(in.meas); j++ {
					if rng.draw() < p.moveVThresh {
						x, z = p.injectMove(rng, in, j, x, z)
					}
				}
			}
			continue
		case cCX:
			bc, bt := uint64(1)<<in.q0, uint64(1)<<in.q1
			// CX propagates X control->target and Z target->control.
			if x&bc != 0 {
				x ^= bt
			}
			if z&bt != 0 {
				z ^= bc
			}
		case cCZ:
			ba, bb := uint64(1)<<in.q0, uint64(1)<<in.q1
			// CZ propagates X on either qubit into a Z on the other.
			if x&ba != 0 {
				z ^= bb
			}
			if x&bb != 0 {
				z ^= ba
			}
		case cMeasZ, cMeasX:
			b := uint64(1) << in.q0
			flipped := x&b != 0
			if in.op == cMeasX {
				flipped = z&b != 0
			}
			// The draw happens between reading the pre-fault outcome and
			// recording it, exactly like the interpreter.
			if in.vthresh >= 0 && rng.draw() < in.vthresh {
				// The single measurement fault is an outcome flip; the
				// choice draw still happens to keep the stream aligned.
				rng.intn(len(choicesByKind[LocMeasure]))
				flipped = !flipped
			}
			if flipped {
				meas[in.meas>>6] |= 1 << (in.meas & 63)
			}
			// The measured qubit is recycled; its frame no longer matters.
			x &^= b
			z &^= b
			continue
		case cVerify:
			mask := p.verifyMasks[in.aux]
			parity := 0
			for w, m := range mask {
				parity += bits.OnesCount64(meas[w] & m)
			}
			if parity&1 == 1 {
				rejected = true
			}
		case cCorrectX, cCorrectZ:
			cd := &p.corrects[in.aux]
			var pat uint8
			for i := 0; i < steane.N; i++ {
				id := cd.meas[i]
				if meas[id>>6]>>(id&63)&1 != 0 {
					pat |= 1 << i
				}
			}
			corr := p.correction[pat]
			for i := 0; corr != 0 && i < steane.N; i++ {
				if corr>>i&1 == 0 {
					continue
				}
				b := uint64(1) << cd.qubits[i]
				if in.op == cCorrectX {
					x ^= b
				} else {
					z ^= b
				}
				// The applied correction is itself a physical gate and can
				// fail.
				if p.corrVThresh >= 0 && rng.draw() < p.corrVThresh {
					f := choicesByKind[LocOneQubit][rng.intn(len(choicesByKind[LocOneQubit]))]
					if f.First.HasX() {
						x ^= b
					}
					if f.First.HasZ() {
						z ^= b
					}
				}
			}
			continue
		}
		// Shared draw site for single-location instructions (prep, H, S,
		// inject, CX, CZ).  Injection applies the first Pauli to q0 and,
		// for two-qubit locations, the second to q1.
		if in.vthresh >= 0 && rng.draw() < in.vthresh {
			ch := choicesByKind[in.kind]
			f := ch[rng.intn(len(ch))]
			b := uint64(1) << in.q0
			if f.First.HasX() {
				x ^= b
			}
			if f.First.HasZ() {
				z ^= b
			}
			if in.kind == uint8(LocTwoQubit) {
				b = uint64(1) << in.q1
				if f.Second.HasX() {
					x ^= b
				}
				if f.Second.HasZ() {
					z ^= b
				}
			}
		}
	}
	return p.finish(x, z, rejected)
}

// finish extracts the output-block frame and looks up the decode outcome.
func (p *trialProgram) finish(x, z uint64, rejected bool) TrialResult {
	var xOut, zOut int
	for i, q := range p.output {
		xOut |= int(x>>q&1) << i
		zOut |= int(z>>q&1) << i
	}
	f := p.xOutcome[xOut] | p.zOutcome[zOut]
	return TrialResult{
		Rejected:      rejected,
		Uncorrectable: f&outUncorrectable != 0,
		Residual:      f&outResidual != 0,
	}
}

// sampleFaults draws the set of faulty static locations for one sparse
// trial: for each probability class, geometric skips jump straight to the
// next faulty location.  The result (appended to scratch) is sorted by
// location index.
func (p *trialProgram) sampleFaults(rng *lfRand, scratch []int32) []int32 {
	out := scratch[:0]
	for ci := range p.classes {
		c := &p.classes[ci]
		if c.allFaulty {
			out = append(out, c.locs...)
			continue
		}
		pos := 0
		remaining := float64(len(c.locs))
		for {
			skip := math.Log(rng.Float64()) * c.invLogQ
			// NaN or +Inf skips (measure-zero draws) mean "no further fault".
			if !(skip < remaining) {
				break
			}
			pos += int(skip)
			out = append(out, c.locs[pos])
			pos++
			remaining = float64(len(c.locs) - pos)
		}
	}
	// Classes emit sorted runs; a tiny insertion sort merges them.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// runSparse executes one trial given its pre-sampled fault set.  Execution
// starts at the first faulty instruction: before it the frame is clean,
// every recorded measurement is unflipped, verifications pass and
// corrections are no-ops, so the skipped prefix cannot affect the outcome.
// Correction-gate faults (which only exist when a syndrome fired, i.e. only
// in trials that are already executing) are drawn Bernoulli on the fly,
// exactly as the dense path does.
func (p *trialProgram) runSparse(rng *lfRand, meas []uint64, faults []int32) TrialResult {
	if len(faults) == 0 {
		return p.clean
	}
	var x, z uint64
	for i := range meas {
		meas[i] = 0
	}
	rejected := false
	fi := 0
	ops := p.ops
	for ii := int(p.locInstr[faults[0]]); ii < len(ops); ii++ {
		in := &ops[ii]
		faulty := false
		if in.loc >= 0 && in.op != cMoveRun && fi < len(faults) && faults[fi] == in.loc {
			faulty = true
			fi++
		}
		switch in.op {
		case cPrep:
			b := uint64(1) << in.q0
			x &^= b
			z &^= b
			if faulty {
				f := choicesByKind[in.kind][rng.intn(len(choicesByKind[in.kind]))]
				if f.First.HasX() {
					x ^= b
				}
				if f.First.HasZ() {
					z ^= b
				}
			}
		case cHad:
			b := uint64(1) << in.q0
			if (x&b != 0) != (z&b != 0) {
				x ^= b
				z ^= b
			}
			if faulty {
				f := choicesByKind[in.kind][rng.intn(len(choicesByKind[in.kind]))]
				if f.First.HasX() {
					x ^= b
				}
				if f.First.HasZ() {
					z ^= b
				}
			}
		case cPhaseS:
			if x&(1<<in.q0) != 0 {
				z ^= 1 << in.q0
			}
			fallthrough
		case cInject:
			if faulty {
				b := uint64(1) << in.q0
				f := choicesByKind[in.kind][rng.intn(len(choicesByKind[in.kind]))]
				if f.First.HasX() {
					x ^= b
				}
				if f.First.HasZ() {
					z ^= b
				}
			}
		case cMoveRun:
			// Movement faults are matched by location index within the run.
			k := int32(in.meas)
			for fi < len(faults) && faults[fi] < in.loc+k {
				j := faults[fi] - in.loc
				fi++
				b := uint64(1) << in.q0
				if j&1 == 1 {
					b = uint64(1) << in.q1
				}
				f := choicesByKind[LocMove][rng.intn(len(choicesByKind[LocMove]))]
				if f.First.HasX() {
					x ^= b
				}
				if f.First.HasZ() {
					z ^= b
				}
			}
		case cCX:
			bc, bt := uint64(1)<<in.q0, uint64(1)<<in.q1
			if x&bc != 0 {
				x ^= bt
			}
			if z&bt != 0 {
				z ^= bc
			}
			if faulty {
				f := choicesByKind[in.kind][rng.intn(len(choicesByKind[in.kind]))]
				if f.First.HasX() {
					x ^= bc
				}
				if f.First.HasZ() {
					z ^= bc
				}
				if f.Second.HasX() {
					x ^= bt
				}
				if f.Second.HasZ() {
					z ^= bt
				}
			}
		case cCZ:
			ba, bb := uint64(1)<<in.q0, uint64(1)<<in.q1
			if x&ba != 0 {
				z ^= bb
			}
			if x&bb != 0 {
				z ^= ba
			}
			if faulty {
				f := choicesByKind[in.kind][rng.intn(len(choicesByKind[in.kind]))]
				if f.First.HasX() {
					x ^= ba
				}
				if f.First.HasZ() {
					z ^= ba
				}
				if f.Second.HasX() {
					x ^= bb
				}
				if f.Second.HasZ() {
					z ^= bb
				}
			}
		case cMeasZ, cMeasX:
			b := uint64(1) << in.q0
			flipped := x&b != 0
			if in.op == cMeasX {
				flipped = z&b != 0
			}
			if faulty {
				flipped = !flipped
			}
			if flipped {
				meas[in.meas>>6] |= 1 << (in.meas & 63)
			}
			x &^= b
			z &^= b
		case cVerify:
			mask := p.verifyMasks[in.aux]
			parity := 0
			for w, m := range mask {
				parity += bits.OnesCount64(meas[w] & m)
			}
			if parity&1 == 1 {
				rejected = true
			}
		case cCorrectX, cCorrectZ:
			cd := &p.corrects[in.aux]
			var pat uint8
			for i := 0; i < steane.N; i++ {
				id := cd.meas[i]
				if meas[id>>6]>>(id&63)&1 != 0 {
					pat |= 1 << i
				}
			}
			corr := p.correction[pat]
			for i := 0; corr != 0 && i < steane.N; i++ {
				if corr>>i&1 == 0 {
					continue
				}
				b := uint64(1) << cd.qubits[i]
				if in.op == cCorrectX {
					x ^= b
				} else {
					z ^= b
				}
				if p.corrProb > 0 && rng.Float64() < p.corrProb {
					f := choicesByKind[LocOneQubit][rng.intn(len(choicesByKind[LocOneQubit]))]
					if f.First.HasX() {
						x ^= b
					}
					if f.First.HasZ() {
						z ^= b
					}
				}
			}
		}
	}
	return p.finish(x, z, rejected)
}

// denseChunk runs `trials` compiled dense trials, continuing rng's stream,
// and tallies the outcomes.  Byte-identical to the legacy chunk for the
// same source.
//
// This is the dense hot path.  At physical error rates the expected faults
// per trial are ~p·locations << 1, and a fault-free trial consumes exactly
// one value per positive-probability location, plus the rare resample, in
// location order.  So the chunk reads its stream as one run of positions
// (trial i, draw d), and one rng.scan passes every value in the window
// [maxTh, lfRetryMin), which faults at no location and needs no resample,
// across as many trials as stay inside it; those trials tally the
// precompiled clean outcome at once.  Only a value outside the window
// (about p of them) takes the exact path at its position: at or above
// lfRetryMin it is resampled for the same draw (math/rand's f == 1 rule),
// below its location's own threshold it is the trial's first fault and
// runDenseFrom finishes the trial, and otherwise the trial moves on to its
// next draw.
func (p *trialProgram) denseChunk(rng *lfRand, trials int) mcCounts {
	var measArr [4]uint64
	meas := measArr[:]
	if p.measWords > len(measArr) {
		meas = make([]uint64, p.measWords)
	}
	meas = meas[:p.measWords]
	var c mcCounts
	nd := len(p.drawTh)
	if nd == 0 {
		c.tallyN(p.clean, trials) // no location draws, so none faults
		return c
	}
	for i, d := 0, 0; i < trials; {
		n := (trials-i)*nd - d
		k, v := rng.scan(n, uint64(p.maxTh), uint64(lfRetryMin))
		pos := d + k // v's draw, counted from trial i's first
		c.tallyN(p.clean, pos/nd)
		i, d = i+pos/nd, pos%nd
		switch {
		case k == n:
			// Every remaining trial was fault-free: now i == trials.
		case v >= lfRetryMin:
			// Resampled: the next value is draw d's again.
		case v < p.drawTh[d]:
			c.tally(p.runDenseFrom(rng, meas, int(p.drawLoc[d])))
			i, d = i+1, 0
		default:
			d++ // d == nd ends trial i fault-free at the next scan
		}
	}
	return c
}

// sparseChunk runs `trials` sparse trials, continuing rng's stream.
func (p *trialProgram) sparseChunk(rng *lfRand, trials int) mcCounts {
	var measArr [4]uint64
	meas := measArr[:]
	if p.measWords > len(measArr) {
		meas = make([]uint64, p.measWords)
	}
	meas = meas[:p.measWords]
	var faultArr [32]int32
	scratch := faultArr[:0]
	var c mcCounts
	for i := 0; i < trials; i++ {
		faults := p.sampleFaults(rng, scratch)
		if cap(faults) > cap(scratch) {
			scratch = faults // a heavy trial grew the buffer; keep it
		}
		c.tally(p.runSparse(rng, meas, faults))
	}
	return c
}
