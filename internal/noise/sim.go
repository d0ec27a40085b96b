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

// TrialResult is the outcome of simulating one protocol run.
type TrialResult struct {
	// Rejected is true when a verification step failed and the run's output
	// would be discarded and retried.
	Rejected bool
	// Uncorrectable is true when the output block carries a logical error
	// after ideal decoding (the paper's Figure 4 metric).
	Uncorrectable bool
	// Residual is true when the output block carries any non-trivial error
	// pattern at all (a stricter metric, Figure 4's "MC residual" column).
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

// tallyN records n identical trial outcomes at once (the bulk path of the
// bit-sliced executor's all-clean words and of the dense fault scan).
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
// injected RNG stream, which lfRand continues, and tallies the outcomes,
// dispatching on the configured sampling mode.
func (s *Simulator) monteCarloChunk(rng *rand.Rand, trials int) mcCounts {
	countTrials(s.Sampling, trials)
	prog, _ := s.compiled()
	var lf lfRand
	lf.capture(rng)
	switch s.Sampling {
	case SamplingSparse:
		return prog.sparseChunk(&lf, trials)
	case SamplingBitSliced:
		return prog.bitslicedChunk(&lf, trials)
	default:
		return prog.denseChunk(&lf, trials)
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
	tallies, err := engine.Run(ctx, eng, s.chunkJobs(seed, 0, trials, chunk))
	if err != nil {
		return Estimate{}, err
	}
	var total mcCounts
	for _, c := range tallies {
		total = total.add(c)
	}
	return estimateFrom(total, trials), nil
}

// chunkJobs returns the engine jobs of a run of trials Monte Carlo trials
// whose first chunk has index first: full mcChunkTrials chunks, then a
// ragged last one, each run by chunk.
//
// A chunk's key names its index and trial count under the current sampling
// mode.  Dense keys name no mode; the tests' legacy interpreter oracle
// reuses them (and so the RNG streams) to check dense byte for byte.  Sparse
// and bit-sliced each draw random values in their own order and get their
// own namespace — neither may ever share a chunk result with another mode.
// MonteCarloTarget builds its batches here too, so a sequential-sampling run
// and a fixed-trial run of the same seed share cache entries chunk for
// chunk.
func (s *Simulator) chunkJobs(seed int64, first, trials int, chunk func(*rand.Rand, int) mcCounts) []engine.Job[mcCounts] {
	_, fp := s.compiled()
	jobs := make([]engine.Job[mcCounts], (trials+mcChunkTrials-1)/mcChunkTrials)
	for i := range jobs {
		n := min(mcChunkTrials, trials-i*mcChunkTrials)
		key := engine.Fingerprint("noise.mc", fp, s.Model, seed, first+i, n)
		if s.Sampling != SamplingDense {
			key = engine.Fingerprint(key, s.Sampling.String())
		}
		jobs[i] = engine.Job[mcCounts]{
			Key: key,
			Run: func(_ context.Context, rng *rand.Rand) (mcCounts, error) {
				return chunk(rng, n), nil
			},
		}
	}
	return jobs
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

// FirstOrder computes the leading-order error rates exactly: it runs every
// single fault, each fault choice at each static location of the compiled
// program, and weights the outcomes by their probability.  Faults on
// correction gates are not enumerated, because a correction only fires after
// an earlier fault.  The result is deterministic and holds only the terms
// linear in the error rates.  A protocol that no single fault defeats would
// report a zero uncorrectable rate here, leaving its whole rate to
// MonteCarlo.  The paper makes that claim for verify-and-correct, but this
// model's verified variants are not fault tolerant: verify-and-correct
// reads 7.07e-5 at first order against 3.53e-5 for verify-only (the fig4
// golden; see "Figure 4 is not reproduced" in ROADMAP.md).
func (s *Simulator) FirstOrder() Estimate {
	prog, _ := s.compiled()
	var uncorrectable, residual, reject float64
	for loc, ii := range prog.locInstr {
		kind := LocationKind(prog.ops[ii].kind)
		p := s.Model.ErrorProbability(kind)
		if p == 0 {
			continue
		}
		choices := choicesByKind[kind]
		perChoice := p / float64(len(choices))
		for _, f := range choices {
			r := prog.forced(loc, f)
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
