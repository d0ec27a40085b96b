package fowler

import "math/cmplx"

// SGate returns the phase gate: diag(1, i).
func SGate() Unitary {
	return Unitary{{1, 0}, {0, complex(0, 1)}}
}

// XGate returns the Pauli X gate.
func XGate() Unitary {
	return Unitary{{0, 1}, {1, 0}}
}

// ZGate returns the Pauli Z gate.
func ZGate() Unitary {
	return Unitary{{1, 0}, {0, -1}}
}

// IsUnitary reports whether the matrix is unitary to within tol.
func IsUnitary(a Unitary, tol float64) bool {
	p := Mul(Dagger(a), a)
	id := Identity()
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(p[i][j]-id[i][j]) > tol {
				return false
			}
		}
	}
	return true
}
