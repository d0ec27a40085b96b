package noise

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"

	"speedofdata/internal/engine"
	"speedofdata/internal/steane"
)

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

// TrialResult is the outcome of simulating one protocol run.
type TrialResult struct {
	// Rejected is true when a verification step failed and the run's output
	// would be discarded and retried.
	Rejected bool
	// Uncorrectable is true when the output block carries a logical error
	// after ideal decoding (the paper's Figure 4 metric).
	Uncorrectable bool
	// Residual is true when the output block carries any non-trivial error
	// pattern at all (a stricter metric also reported by EXPERIMENTS.md).
	Residual bool
}

// Sampling selects the Monte Carlo trial executor.
type Sampling int

const (
	// SamplingDense is the default: the compiled trial program draws one
	// random value per error location in exactly the order the legacy
	// interpreter (the tests' oracle) does, so estimates are byte-identical
	// for the same seed.
	SamplingDense Sampling = iota
	// SamplingSparse samples the set of faulty locations directly
	// (geometric skipping) and short-circuits fault-free trials.  It is
	// statistically exact but draws random values in a different order, so
	// estimates differ from dense within Monte Carlo error.  Opt-in.
	SamplingSparse
	// SamplingBitSliced advances 64 independent trials per uint64 word
	// operation: qubit error states are lane vectors and fault masks are
	// Bernoulli words (see bitsliced.go).  Statistically exact like sparse,
	// but lane order consumes the RNG stream differently from both dense and
	// sparse, so it owns a third cache-key namespace.  Opt-in.
	SamplingBitSliced
)

// String names the sampling mode.
func (s Sampling) String() string {
	switch s {
	case SamplingDense:
		return "dense"
	case SamplingSparse:
		return "sparse"
	case SamplingBitSliced:
		return "bitsliced"
	default:
		return fmt.Sprintf("sampling(%d)", int(s))
	}
}

// Simulator evaluates one preparation protocol under one error model.
type Simulator struct {
	Code     steane.Code
	Protocol *steane.Protocol
	Model    Model
	// Sampling selects the Monte Carlo executor (default SamplingDense).
	// It must be set before the first Monte Carlo call and not changed
	// afterwards.
	Sampling Sampling

	// compiled holds the lazily built trial program and the cached protocol
	// fingerprint.  Protocol and Model must not be mutated once the first
	// Monte Carlo call has compiled them.
	compileOnce sync.Once
	prog        *trialProgram
	fp          string
}

// NewSimulator constructs a simulator, validating the protocol and model.
func NewSimulator(code steane.Code, p *steane.Protocol, m Model) (*Simulator, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("noise: invalid protocol: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if p.NumQubits > 64 {
		return nil, fmt.Errorf("noise: protocol %q has %d qubits; the Pauli-frame simulator supports up to 64", p.Name, p.NumQubits)
	}
	return &Simulator{Code: code, Protocol: p, Model: m}, nil
}

// compiled returns the trial program and protocol fingerprint, building
// them on first use (once; Monte Carlo chunks race here under the engine).
func (s *Simulator) compiled() (*trialProgram, string) {
	s.compileOnce.Do(func() {
		s.prog = compileProgram(s.Code, s.Protocol, s.Model)
		s.fp = protocolFingerprint(s.Protocol)
	})
	return s.prog, s.fp
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

// Estimate is the result of evaluating a protocol.
type Estimate struct {
	// Trials is the number of Monte Carlo runs performed (0 for the
	// first-order analysis).
	Trials int
	// UncorrectableRate is the probability that an accepted run produces an
	// output block with a logical error (the Figure 4 metric).
	UncorrectableRate float64
	// ResidualRate is the probability that an accepted run produces any
	// non-trivial residual error on the output block.
	ResidualRate float64
	// RejectRate is the verification failure rate (Section 2.3 reports 0.2%
	// for the verified subunit).
	RejectRate float64
	// StdErr is the binomial standard error of UncorrectableRate.
	StdErr float64
}

// mcChunkTrials is the fixed Monte Carlo chunk size.  The chunk plan depends
// only on the trial count — never on the worker count — which is what makes
// parallel and sequential runs of the same seed byte-identical.
const mcChunkTrials = 8192

// mcCounts are the raw outcome tallies of one chunk of trials; chunks merge
// by addition, which is order-independent.
type mcCounts struct {
	Accepted, Rejected, Uncorrectable, Residual int
}

func (a mcCounts) add(b mcCounts) mcCounts {
	return mcCounts{
		Accepted:      a.Accepted + b.Accepted,
		Rejected:      a.Rejected + b.Rejected,
		Uncorrectable: a.Uncorrectable + b.Uncorrectable,
		Residual:      a.Residual + b.Residual,
	}
}

// tally records one trial outcome.
func (c *mcCounts) tally(r TrialResult) {
	c.tallyN(r, 1)
}

// tallyN records n identical trial outcomes at once (the bit-sliced
// executor's bulk path for all-clean words).
func (c *mcCounts) tallyN(r TrialResult, n int) {
	if r.Rejected {
		c.Rejected += n
		return
	}
	c.Accepted += n
	if r.Uncorrectable {
		c.Uncorrectable += n
	}
	if r.Residual {
		c.Residual += n
	}
}

// monteCarloChunk runs `trials` protocol simulations drawing faults from the
// injected RNG stream and tallies the outcomes, dispatching on the
// configured sampling mode.
func (s *Simulator) monteCarloChunk(rng *rand.Rand, trials int) mcCounts {
	countTrials(s.Sampling, trials)
	switch s.Sampling {
	case SamplingSparse:
		prog, _ := s.compiled()
		return prog.sparseChunk(rng, trials)
	case SamplingBitSliced:
		prog, _ := s.compiled()
		return prog.bitslicedChunk(rng, trials)
	default:
		prog, _ := s.compiled()
		return prog.denseChunk(rng, trials)
	}
}

// protocolFingerprint identifies a protocol for cache keys by hashing its
// full op sequence: protocols that differ anywhere must never share Monte
// Carlo chunk results or RNG streams, even if name and shape coincide.
// It walks (and formats) every op, so the Simulator computes it once and
// caches it alongside the compiled program (see compiled) instead of
// re-deriving it on every MonteCarloEngine call.
func protocolFingerprint(p *steane.Protocol) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|", p.Name, p.NumQubits)
	for _, op := range p.Ops {
		fmt.Fprintf(h, "%d%v%d%v;", int(op.Kind), op.Qubits, op.MeasID, op.MeasIDs)
	}
	return fmt.Sprintf("%s/%d/%x", p.Name, len(p.Ops), h.Sum64())
}

// DefaultTrials is the standard Monte Carlo effort for the Figure 4 error
// estimates: enough samples to resolve the smallest published rate (2.9e-5
// for verify-and-correct) with a usable confidence interval.  The qsd CLI
// (-trials) and the HTTP API (?trials=) both default to it.
const DefaultTrials = 200000

// MonteCarlo estimates error rates with the given number of trials and seed.
// It is the sequential form of MonteCarloEngine and produces identical
// estimates for the same seed.
func (s *Simulator) MonteCarlo(trials int, seed int64) Estimate {
	est, err := s.MonteCarloEngine(context.Background(), nil, trials, seed)
	if err != nil {
		// Chunk jobs cannot fail and the context is never cancelled.
		panic(fmt.Sprintf("noise: sequential Monte Carlo failed: %v", err))
	}
	return est
}

// MonteCarloEngine estimates error rates by splitting the trials into fixed
// deterministic chunks and running them as engine jobs.  Each chunk owns an
// independent RNG stream seeded from a stable hash of its chunk key, so
// every engine produces byte-identical estimates regardless of worker count;
// the merged tallies are order-independent.
func (s *Simulator) MonteCarloEngine(ctx context.Context, eng *engine.Engine, trials int, seed int64) (Estimate, error) {
	return s.monteCarloEngine(ctx, eng, trials, seed, s.monteCarloChunk)
}

// monteCarloEngine is MonteCarloEngine with every chunk run by chunk; the
// tests pass the legacy interpreter oracle.
func (s *Simulator) monteCarloEngine(ctx context.Context, eng *engine.Engine, trials int, seed int64, chunk func(*rand.Rand, int) mcCounts) (Estimate, error) {
	if trials <= 0 {
		panic("noise: trials must be positive")
	}
	chunks := (trials + mcChunkTrials - 1) / mcChunkTrials
	_, fp := s.compiled()
	jobs := make([]engine.Job[mcCounts], chunks)
	for i := 0; i < chunks; i++ {
		n := mcChunkTrials
		if i == chunks-1 {
			n = trials - i*mcChunkTrials
		}
		jobs[i] = engine.Job[mcCounts]{
			Key: s.chunkKey(fp, seed, i, n),
			Run: func(_ context.Context, rng *rand.Rand) (mcCounts, error) {
				return chunk(rng, n), nil
			},
		}
	}
	tallies, err := engine.Run(ctx, eng, jobs)
	if err != nil {
		return Estimate{}, err
	}
	var total mcCounts
	for _, c := range tallies {
		total = total.add(c)
	}
	return estimateFrom(total, trials), nil
}

// chunkKey is the engine job key of Monte Carlo chunk i (of n trials) under
// the current sampling mode.  Dense keys name no mode; the tests' legacy
// interpreter oracle reuses them (and so the RNG streams) to check dense
// byte for byte.  Sparse and bit-sliced each draw random values in their own
// order and get their own namespace — neither may ever share a chunk result
// with another mode.  MonteCarloTarget builds the same keys, so a
// sequential-sampling run and a fixed-trial run of the same seed share cache
// entries chunk for chunk.
func (s *Simulator) chunkKey(fp string, seed int64, i, n int) string {
	key := engine.NewKey("noise.mc").Str(fp).Keyer(s.Model).Int64(seed).Int(i).Int(n)
	switch s.Sampling {
	case SamplingSparse:
		key = key.Str("sparse")
	case SamplingBitSliced:
		key = key.Str("bitsliced")
	}
	return key.String()
}

// estimateFrom converts merged chunk tallies into the rate estimate.
func estimateFrom(total mcCounts, trials int) Estimate {
	est := Estimate{Trials: trials, RejectRate: float64(total.Rejected) / float64(trials)}
	if total.Accepted > 0 {
		est.UncorrectableRate = float64(total.Uncorrectable) / float64(total.Accepted)
		est.ResidualRate = float64(total.Residual) / float64(total.Accepted)
		est.StdErr = math.Sqrt(est.UncorrectableRate * (1 - est.UncorrectableRate) / float64(total.Accepted))
	}
	return est
}

// FirstOrder computes the leading-order error rates exactly by enumerating
// every single-fault event, weighting each by its probability.  It is
// deterministic and fast, and is the oracle used by tests to check the
// ordering of the Figure 4 variants.  Protocols that are fault-tolerant to
// single faults (verify-and-correct) report a (near-)zero first-order
// uncorrectable rate; their true rate is second order and is measured by
// MonteCarlo.
func (s *Simulator) FirstOrder() Estimate {
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

// FirstOrderBreakdown enumerates every single-fault event and reports the
// per-location outcome counts, which is the detail behind FirstOrder.  Only
// locations with at least one non-benign outcome are returned.
func (s *Simulator) FirstOrderBreakdown() []LocationContribution {
	kinds := s.locationKinds()
	ops := s.locationOps()
	var out []LocationContribution
	for loc, kind := range kinds {
		choices := FaultChoices(kind)
		contrib := LocationContribution{Index: loc, Kind: kind, Op: ops[loc], Choices: len(choices)}
		for _, f := range choices {
			r := s.runTrial(&singleFaultInjector{loc: loc, fault: f})
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

// VerifyNoiselessIsClean runs the protocol once with no faults and reports an
// error if the output is rejected or carries any residual error — a sanity
// check that the protocol and propagation rules are self-consistent.
func (s *Simulator) VerifyNoiselessIsClean() error {
	r := s.runTrial(&singleFaultInjector{loc: -1})
	if r.Rejected {
		return fmt.Errorf("noise: protocol %q rejects its own noiseless run", s.Protocol.Name)
	}
	if r.Residual {
		return fmt.Errorf("noise: protocol %q leaves residual error in a noiseless run", s.Protocol.Name)
	}
	return nil
}
