package noise

import (
	"math"
	"math/bits"

	"speedofdata/internal/steane"
)

// This file is the bit-sliced Monte Carlo executor (SamplingBitSliced): 64
// independent trials advance per uint64 word operation.  Each qubit's X/Z
// error state is a lane vector (bit l of x[q] is trial l's bit-flip on qubit
// q), so the Clifford frame transforms of the compiled trial program become
// word-parallel boolean algebra — H is a swap of the two planes, S is
// z ^= x, CX is x[t] ^= x[c]; z[c] ^= z[t] — and a whole word whose fault
// set is empty short-circuits to 64 precompiled clean outcomes, exactly like
// the dense fault-scan fast path but for 64 trials at once.
//
// Draw discipline (seed-stable, documented because it differs from dense):
//
//  1. Per 64-trial word the fault set is sampled first: probability classes
//     in compile order, geometric skips over the class's location-major ×
//     lane-minor slot grid (slot = locIdx*64 + lane), one Float64 draw per
//     skip — the exact distribution of a Bernoulli scan over 64·len(locs)
//     independent slots, without the per-slot draws.
//  2. Faulty locations are then visited in instruction order; each faulty
//     lane (ascending) draws one fault choice.  Single-choice kinds (prep,
//     measurement) need no choice draw: the lane mask is the injection.
//  3. Correction-gate faults draw one Bernoulli per applied correction
//     (dirty lanes ascending, block qubits ascending) plus a choice draw on
//     fault — the same conditional structure as the dense and sparse paths.
//
// Lane order therefore consumes the RNG stream differently from the dense
// location order: bit-sliced estimates are statistically — not byte —
// equivalent to dense, validated within 3σ of the dense sampler and the
// first-order oracle, and never share engine cache keys (the chunk key
// carries a "bitsliced" namespace, see Simulator.chunkJobs).
//
// Lanes are fully independent, so a ragged tail word simply masks the tally
// to its first `trials mod 64` lanes; the word executor itself performs zero
// heap allocations (TestBitSlicedWordAllocations).

// wordFault is one faulty static location of a trial word and the lanes
// (trials) it faults in.
type wordFault struct {
	loc  int32
	mask uint64
}

// wordState is the lane-vector state of one 64-trial word.  The qubit
// planes are fixed-size (the simulator admits at most 64 qubits); measLane
// is chunk-owned scratch with one lane word per measurement id, the
// transpose of the dense path's bit-packed per-trial measurement words.
type wordState struct {
	x, z     [64]uint64
	measLane []uint64
}

// sampleWordFaults draws the fault set of one 64-trial word: for each
// probability class, geometric skips (⌊ln U / ln(1-p)⌋) jump between faulty
// slots of the location-major × lane-minor grid.  The result (reusing
// scratch) is sorted by location index with per-location lane masks
// coalesced; classes partition the locations, so no location appears twice
// after the merge.
func (p *trialProgram) sampleWordFaults(rng *lfRand, scratch []wordFault) []wordFault {
	out := scratch[:0]
	for ci := range p.classes {
		c := &p.classes[ci]
		if c.allFaulty {
			for _, loc := range c.locs {
				out = append(out, wordFault{loc: loc, mask: ^uint64(0)})
			}
			continue
		}
		slots := 64 * len(c.locs)
		pos := 0
		remaining := float64(slots)
		start := len(out)
		for {
			skip := math.Log(rng.Float64()) * c.invLogQ
			// NaN or +Inf skips (measure-zero draws) mean "no further fault".
			if !(skip < remaining) {
				break
			}
			pos += int(skip)
			loc := c.locs[pos>>6]
			bit := uint64(1) << (pos & 63)
			// Consecutive faulty slots of one location are adjacent: coalesce.
			if n := len(out); n > start && out[n-1].loc == loc {
				out[n-1].mask |= bit
			} else {
				out = append(out, wordFault{loc: loc, mask: bit})
			}
			pos++
			remaining = float64(slots - pos)
		}
	}
	// Classes emit sorted runs over disjoint locations; a tiny insertion
	// sort merges them (expected faults per word ~ 64·p·locations, single
	// digits at physical error rates).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].loc < out[j-1].loc; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// injectLanes draws one fault choice per set lane of mask (ascending) and
// injects it on qubit q.
func (p *trialProgram) injectLanes(st *wordState, rng *lfRand, kind, q uint8, mask uint64) {
	ch := choicesByKind[kind]
	for m := mask; m != 0; m &= m - 1 {
		b := m & -m
		f := ch[rng.intn(len(ch))]
		if f.First.HasX() {
			st.x[q] ^= b
		}
		if f.First.HasZ() {
			st.z[q] ^= b
		}
	}
}

// injectLanes2 is injectLanes for two-qubit locations: each faulty lane
// draws one of the six choices and deposits the First Pauli on q0 and the
// Second on q1.
func (p *trialProgram) injectLanes2(st *wordState, rng *lfRand, q0, q1 uint8, mask uint64) {
	ch := choicesByKind[LocTwoQubit]
	for m := mask; m != 0; m &= m - 1 {
		b := m & -m
		f := ch[rng.intn(len(ch))]
		if f.First.HasX() {
			st.x[q0] ^= b
		}
		if f.First.HasZ() {
			st.z[q0] ^= b
		}
		if f.Second.HasX() {
			st.x[q1] ^= b
		}
		if f.Second.HasZ() {
			st.z[q1] ^= b
		}
	}
}

// runWord executes one 64-trial word given its pre-sampled, non-empty fault
// set and returns the rejected-lane mask.  Execution starts at the first
// faulty instruction: before it every lane's frame is clean and every
// recorded measurement lane is zero, so the skipped prefix cannot affect
// any lane (the same argument as runSparse, applied per lane).
func (p *trialProgram) runWord(st *wordState, rng *lfRand, faults []wordFault) uint64 {
	for i := range st.x {
		st.x[i] = 0
		st.z[i] = 0
	}
	for i := range st.measLane {
		st.measLane[i] = 0
	}
	x, z := &st.x, &st.z
	meas := st.measLane
	var rejected uint64
	fi := 0
	ops := p.ops
	for ii := int(p.locInstr[faults[0].loc]); ii < len(ops); ii++ {
		in := &ops[ii]
		var fmask uint64
		if in.loc >= 0 && in.op != cMoveRun && fi < len(faults) && faults[fi].loc == in.loc {
			fmask = faults[fi].mask
			fi++
		}
		switch in.op {
		case cPrep:
			// The only prep fault is a bit flip, so the lane mask is the
			// injection itself: no choice draws.
			x[in.q0] = fmask
			z[in.q0] = 0
		case cHad:
			// H exchanges X and Z errors lane-wise.
			x[in.q0], z[in.q0] = z[in.q0], x[in.q0]
			if fmask != 0 {
				p.injectLanes(st, rng, uint8(LocOneQubit), in.q0, fmask)
			}
		case cPhaseS:
			// S maps X to Y: lanes with an X error gain a Z component.
			z[in.q0] ^= x[in.q0]
			if fmask != 0 {
				p.injectLanes(st, rng, uint8(LocOneQubit), in.q0, fmask)
			}
		case cInject:
			if fmask != 0 {
				p.injectLanes(st, rng, uint8(LocOneQubit), in.q0, fmask)
			}
		case cMoveRun:
			// Movement faults are matched by location index within the run,
			// injecting on the run's alternating operand.
			end := in.loc + int32(in.meas)
			for fi < len(faults) && faults[fi].loc < end {
				q := in.q0
				if (faults[fi].loc-in.loc)&1 == 1 {
					q = in.q1
				}
				p.injectLanes(st, rng, uint8(LocMove), q, faults[fi].mask)
				fi++
			}
		case cCX:
			// CX propagates X control->target and Z target->control.
			x[in.q1] ^= x[in.q0]
			z[in.q0] ^= z[in.q1]
			if fmask != 0 {
				p.injectLanes2(st, rng, in.q0, in.q1, fmask)
			}
		case cCZ:
			// CZ propagates X on either qubit into a Z on the other.  The
			// transform only writes Z planes, so both reads of the X planes
			// see pre-gate values, like the scalar executors.
			z[in.q1] ^= x[in.q0]
			z[in.q0] ^= x[in.q1]
			if fmask != 0 {
				p.injectLanes2(st, rng, in.q0, in.q1, fmask)
			}
		case cMeasZ, cMeasX:
			out := x[in.q0]
			if in.op == cMeasX {
				out = z[in.q0]
			}
			// A measurement fault flips the outcome on its lanes; no choice
			// draw (FlipOutcome is the single choice).
			meas[in.meas] = out ^ fmask
			// The measured qubit is recycled; its planes no longer matter.
			x[in.q0] = 0
			z[in.q0] = 0
		case cVerify:
			// Per-lane parity over the verified measurement set: XOR of the
			// lane words of every id in the mask.
			var par uint64
			for w, m := range p.verifyMasks[in.aux] {
				for ; m != 0; m &= m - 1 {
					par ^= meas[w<<6+bits.TrailingZeros64(m)]
				}
			}
			rejected |= par
		case cCorrectX, cCorrectZ:
			cd := &p.corrects[in.aux]
			// Only lanes with at least one flipped syndrome measurement can
			// receive a correction; the rest decode to pattern 0 (no-op).
			var dirty uint64
			for i := 0; i < steane.N; i++ {
				dirty |= meas[cd.meas[i]]
			}
			for d := dirty; d != 0; d &= d - 1 {
				lane := uint(bits.TrailingZeros64(d))
				b := uint64(1) << lane
				var pat uint8
				for i := 0; i < steane.N; i++ {
					pat |= uint8(meas[cd.meas[i]]>>lane&1) << i
				}
				corr := p.correction[pat]
				for i := 0; corr != 0 && i < steane.N; i++ {
					if corr>>i&1 == 0 {
						continue
					}
					q := cd.qubits[i]
					if in.op == cCorrectX {
						x[q] ^= b
					} else {
						z[q] ^= b
					}
					// The applied correction is itself a physical gate and
					// can fail — drawn Bernoulli on the fly, exactly like the
					// dense and sparse executors.
					if p.corrProb > 0 && rng.Float64() < p.corrProb {
						f := choicesByKind[LocOneQubit][rng.intn(len(choicesByKind[LocOneQubit]))]
						if f.First.HasX() {
							x[q] ^= b
						}
						if f.First.HasZ() {
							z[q] ^= b
						}
					}
				}
			}
		}
	}
	return rejected
}

// tallyWord decodes the active lanes of an executed word into c.  Accepted
// lanes whose output frame is clean are bulk-counted (their decode is the
// fault-free outcome, which carries no error flags); only lanes with a
// residual frame pay for the scalar outcome-table lookup.
func (p *trialProgram) tallyWord(st *wordState, rejected, active uint64, c *mcCounts) {
	c.Rejected += bits.OnesCount64(rejected & active)
	accepted := active &^ rejected
	c.Accepted += bits.OnesCount64(accepted)
	var any uint64
	for _, q := range p.output {
		any |= st.x[q] | st.z[q]
	}
	for d := any & accepted; d != 0; d &= d - 1 {
		lane := uint(bits.TrailingZeros64(d))
		var xOut, zOut int
		for i, q := range p.output {
			xOut |= int(st.x[q]>>lane&1) << i
			zOut |= int(st.z[q]>>lane&1) << i
		}
		f := p.xOutcome[xOut] | p.zOutcome[zOut]
		if f&outUncorrectable != 0 {
			c.Uncorrectable++
		}
		if f&outResidual != 0 {
			c.Residual++
		}
	}
}

// bitslicedChunk runs `trials` bit-sliced trials in words of 64 lanes,
// continuing rng's stream, and tallies the outcomes.  The word plan depends
// only on the trial count, so parallel and sequential engine runs stay
// byte-identical; a ragged final word masks its tally to the first trials
// mod 64 lanes (lanes are independent, so the surplus lanes are simulated
// and discarded deterministically).
func (p *trialProgram) bitslicedChunk(rng *lfRand, trials int) mcCounts {
	var st wordState
	st.measLane = make([]uint64, p.measWords*64)
	var faultArr [32]wordFault
	scratch := faultArr[:0]
	var c mcCounts
	for done := 0; done < trials; done += 64 {
		active := ^uint64(0)
		if n := trials - done; n < 64 {
			active = uint64(1)<<uint(n) - 1
		}
		faults := p.sampleWordFaults(rng, scratch)
		if cap(faults) > cap(scratch) {
			scratch = faults // a heavy word grew the buffer; keep it
		}
		if len(faults) == 0 {
			// Every lane of the word is fault-free: 64 (or the tail's worth
			// of) precompiled clean outcomes, no execution.
			c.tallyN(p.clean, bits.OnesCount64(active))
			continue
		}
		rejected := p.runWord(&st, rng, faults)
		p.tallyWord(&st, rejected, active, &c)
	}
	return c
}
