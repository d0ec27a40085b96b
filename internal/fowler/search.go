package fowler

import (
	"fmt"
	"math"
)

// Sequence is an H/T gate string (most significant gate applied last), the
// output of the approximation search.
type Sequence struct {
	// Gates is the gate string using 'H' and 'T' characters, applied left to
	// right.
	Gates string
	// Matrix is the product of the gates.
	Matrix Unitary
	// Error is the distance to the target unitary.
	Error float64
}

// Len returns the number of gates in the sequence.
func (s Sequence) Len() int { return len(s.Gates) }

// TCount returns the number of T gates (the expensive, π/8-ancilla-consuming
// gates) in the sequence.
func (s Sequence) TCount() int {
	n := 0
	for _, c := range s.Gates {
		if c == 'T' {
			n++
		}
	}
	return n
}

// Searcher enumerates products of H and T gates breadth-first, deduplicating
// states up to global phase, and answers closest-approximation queries.  The
// state space is the paper's "exhaustively search all permutations of T and H
// gates to find a minimum length sequence" (Section 2.5), bounded by MaxGates
// because the group is infinite.
type Searcher struct {
	// MaxGates bounds the sequence length explored.
	MaxGates int
	// MaxStates bounds memory; enumeration stops early if reached.
	MaxStates int

	states []Sequence
	built  bool
}

// NewSearcher returns a searcher with the given gate-count bound.
func NewSearcher(maxGates int) *Searcher {
	if maxGates < 1 {
		panic("fowler: maxGates must be positive")
	}
	return &Searcher{MaxGates: maxGates, MaxStates: 400000}
}

// Build enumerates the reachable states.  It is called automatically by
// Approximate but may be invoked eagerly (e.g. by benchmarks).
func (s *Searcher) Build() {
	if s.built {
		return
	}
	s.built = true
	h, t := HGate(), TGate()
	type node struct {
		seq Sequence
	}
	seen := make(map[[8]int64]bool)
	start := Sequence{Gates: "", Matrix: Identity()}
	seen[canonicalKey(start.Matrix)] = true
	frontier := []node{{seq: start}}
	s.states = append(s.states, start)

	for depth := 0; depth < s.MaxGates && len(s.states) < s.MaxStates; depth++ {
		var next []node
		for _, n := range frontier {
			for _, g := range []struct {
				name rune
				m    Unitary
			}{{'H', h}, {'T', t}} {
				// Prune trivial redundancies: HH = I and TTTTTTTT = I (up to
				// phase), so never follow an H with an H and never emit more
				// than seven consecutive T gates.
				gl := len(n.seq.Gates)
				if g.name == 'H' && gl > 0 && n.seq.Gates[gl-1] == 'H' {
					continue
				}
				if g.name == 'T' && gl >= 7 && allT(n.seq.Gates[gl-7:]) {
					continue
				}
				m := Mul(g.m, n.seq.Matrix)
				key := canonicalKey(m)
				if seen[key] {
					continue
				}
				seen[key] = true
				ns := Sequence{Gates: n.seq.Gates + string(g.name), Matrix: m}
				s.states = append(s.states, ns)
				next = append(next, node{seq: ns})
				if len(s.states) >= s.MaxStates {
					break
				}
			}
			if len(s.states) >= s.MaxStates {
				break
			}
		}
		frontier = next
	}
}

func allT(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != 'T' {
			return false
		}
	}
	return true
}

// Approximate returns the shortest enumerated H/T sequence within eps of the
// target, or, if none reaches eps, the closest sequence found (with its
// achieved error).  The boolean reports whether eps was met.
func (s *Searcher) Approximate(target Unitary, eps float64) (Sequence, bool) {
	s.Build()
	best := Sequence{Error: math.Inf(1)}
	bestWithin := Sequence{Error: math.Inf(1)}
	foundWithin := false
	for _, st := range s.states {
		d := Distance(st.Matrix, target)
		if d < best.Error || (d == best.Error && len(st.Gates) < len(best.Gates)) {
			best = st
			best.Error = d
		}
		if d <= eps {
			if !foundWithin || len(st.Gates) < len(bestWithin.Gates) ||
				(len(st.Gates) == len(bestWithin.Gates) && d < bestWithin.Error) {
				bestWithin = st
				bestWithin.Error = d
				foundWithin = true
			}
		}
	}
	if foundWithin {
		return bestWithin, true
	}
	return best, false
}

// ApproximateRz is a convenience wrapper targeting the π/2^k rotation.
func (s *Searcher) ApproximateRz(k int, eps float64) (Sequence, bool) {
	return s.Approximate(RzPiOver2k(k), eps)
}

// LengthModel is a log-linear model for the H/T sequence length needed to
// reach a given precision: length ≈ A + B·ln(1/eps).  Fowler's exhaustive
// search exhibits this scaling; the model lets benchmark circuit generators
// cost rotations whose precision is beyond direct enumeration.
type LengthModel struct {
	A, B float64
}

// Length returns the estimated sequence length for a target precision.
func (m LengthModel) Length(eps float64) int {
	if eps <= 0 {
		panic("fowler: eps must be positive")
	}
	l := m.A + m.B*math.Log(1/eps)
	if l < 1 {
		l = 1
	}
	return int(math.Ceil(l))
}

// DefaultLengthModel returns a conservative model consistent with Fowler's
// reported results (sequences of a few dozen gates for 1e-4 precision).
func DefaultLengthModel() LengthModel {
	return LengthModel{A: 2.0, B: 4.5}
}

// CascadeStats analyses the exact fault-tolerant π/2^k cascade of Figure 6:
// with dedicated π/2^i ancilla factories for i = 3..k, the construction uses
// k-2 CX and X gates in the worst case, and on the data's critical path the
// expected number of CX gates is sum_{i=0}^{k-3} 1/2^i (each measurement has
// an equal chance of terminating the cascade early) with one fewer X gate.
type CascadeStats struct {
	K int
	// AncillaFactories is the number of distinct π/2^i factories required.
	AncillaFactories int
	// WorstCaseCX and WorstCaseX are the gate counts if every measurement
	// comes out "wrong".
	WorstCaseCX, WorstCaseX int
	// ExpectedCX and ExpectedX are the expected data-critical-path gate
	// counts.
	ExpectedCX, ExpectedX float64
}

// Cascade returns the Figure 6 statistics for a π/2^k rotation (k >= 3).
func Cascade(k int) (CascadeStats, error) {
	if k < 3 {
		return CascadeStats{}, fmt.Errorf("fowler: cascade requires k >= 3 (π/8 and larger are native), got %d", k)
	}
	stats := CascadeStats{
		K:                k,
		AncillaFactories: k - 2,
		WorstCaseCX:      k - 2,
		WorstCaseX:       k - 3,
	}
	for i := 0; i <= k-3; i++ {
		stats.ExpectedCX += 1 / math.Pow(2, float64(i))
	}
	stats.ExpectedX = stats.ExpectedCX - 1
	if stats.ExpectedX < 0 {
		stats.ExpectedX = 0
	}
	return stats, nil
}
