// Package fowler implements the fault-tolerant small-angle rotation machinery
// of Section 2.5: exhaustive search over H/T gate sequences approximating
// π/2^k rotations (Fowler's technique, reference [14] of the paper), a
// log-linear sequence-length model for precisions beyond direct search, and
// the analysis of the exact recursive π/2^k cascade of Figure 6.
package fowler

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Unitary is a 2x2 complex matrix acting on a single qubit.
type Unitary [2][2]complex128

// Identity returns the identity gate.
func Identity() Unitary {
	return Unitary{{1, 0}, {0, 1}}
}

// HGate returns the Hadamard gate.
func HGate() Unitary {
	s := complex(1/math.Sqrt2, 0)
	return Unitary{{s, s}, {s, -s}}
}

// TGate returns the π/8 gate: diag(1, exp(iπ/4)).
func TGate() Unitary {
	return Unitary{{1, 0}, {0, cmplx.Exp(complex(0, math.Pi/4))}}
}

// Rz returns a rotation about the Z axis by angle theta:
// diag(1, exp(i·theta)) up to global phase — the controlled-phase convention
// used by the QFT decomposition in Section 2.5.
func Rz(theta float64) Unitary {
	return Unitary{{1, 0}, {0, cmplx.Exp(complex(0, theta))}}
}

// RzPiOver2k returns the "π/2^k gate" in the paper's nomenclature, where the
// π/8 gate (k = 3) is the T gate, k = 2 is the phase gate S and k = 1 is Z.
// In the diag(1, e^{iθ}) convention this is a relative phase of π/2^(k-1):
// the gate named for the angle ±π/2^k that appears in its traceless form.
func RzPiOver2k(k int) Unitary {
	if k < 1 {
		panic(fmt.Sprintf("fowler: k must be >= 1, got %d", k))
	}
	return Rz(math.Pi / math.Pow(2, float64(k-1)))
}

// Mul returns the matrix product a·b (apply b first, then a).
func Mul(a, b Unitary) Unitary {
	var out Unitary
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			out[i][j] = a[i][0]*b[0][j] + a[i][1]*b[1][j]
		}
	}
	return out
}

// Dagger returns the conjugate transpose.
func Dagger(a Unitary) Unitary {
	var out Unitary
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			out[i][j] = cmplx.Conj(a[j][i])
		}
	}
	return out
}

// Distance returns a global-phase-invariant distance between two unitaries:
// sqrt(1 - |tr(a†b)|/2), which is zero exactly when a and b agree up to a
// global phase and grows to one for orthogonal operations.  This is the
// metric Fowler's search minimises.
func Distance(a, b Unitary) float64 {
	p := Mul(Dagger(a), b)
	tr := p[0][0] + p[1][1]
	v := 1 - cmplx.Abs(tr)/2
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// canonicalKey produces a dedup key for a unitary up to global phase, by
// rotating the phase so the largest-magnitude entry is real positive and then
// quantising the entries.
func canonicalKey(a Unitary) [8]int64 {
	// Find the entry with the largest magnitude to define the phase.
	var ref complex128
	refAbs := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if ab := cmplx.Abs(a[i][j]); ab > refAbs {
				refAbs = ab
				ref = a[i][j]
			}
		}
	}
	phase := complex(1, 0)
	if refAbs > 1e-12 {
		phase = cmplx.Conj(ref) / complex(refAbs, 0)
	}
	const scale = 1e7
	var key [8]int64
	idx := 0
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			v := a[i][j] * phase
			key[idx] = int64(math.Round(real(v) * scale))
			key[idx+1] = int64(math.Round(imag(v) * scale))
			idx += 2
		}
	}
	return key
}
