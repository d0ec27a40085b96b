package quantum

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildSampleCircuit() *Circuit {
	// The Figure 1 example: H on three qubits, CX Q0,Q1; T Q1; CX Q0,Q1; T Q1.
	c := NewCircuit("figure1", 3)
	c.Add(GateH, 0).Add(GateH, 1).Add(GateH, 2)
	c.Add(GateCX, 0, 1)
	c.Add(GateT, 1)
	c.Add(GateCX, 0, 1)
	c.Add(GateT, 1)
	return c
}

func TestCircuitAppendAndValidate(t *testing.T) {
	c := buildSampleCircuit()
	if c.Len() != 7 {
		t.Fatalf("Len() = %d, want 7", c.Len())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
}

func TestCircuitAppendPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("appending a gate on a qubit outside the circuit should panic")
		}
	}()
	NewCircuit("bad", 2).Add(GateH, 5)
}

func TestNewCircuitPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative qubit count should panic")
		}
	}()
	NewCircuit("bad", -1)
}

func TestComputeStats(t *testing.T) {
	c := buildSampleCircuit()
	s := c.ComputeStats()
	if s.TotalGates != 7 {
		t.Errorf("TotalGates = %d, want 7", s.TotalGates)
	}
	if s.CountByKind[GateH] != 3 || s.CountByKind[GateCX] != 2 || s.CountByKind[GateT] != 2 {
		t.Errorf("CountByKind wrong: %v", s.CountByKind)
	}
	if s.Pi8Gates != 2 {
		t.Errorf("Pi8Gates = %d, want 2", s.Pi8Gates)
	}
	if s.NonTransversal != 2 || s.Transversal != 5 {
		t.Errorf("transversal split = %d/%d, want 5/2", s.Transversal, s.NonTransversal)
	}
	if s.TwoQubitGates != 2 {
		t.Errorf("TwoQubitGates = %d, want 2", s.TwoQubitGates)
	}
	// Depth: q1 participates in H, CX, T, CX, T -> depth 5.
	if s.Depth != 5 {
		t.Errorf("Depth = %d, want 5", s.Depth)
	}
}

// randomCircuit builds a random but valid circuit for property tests.
func randomCircuit(r *rand.Rand, maxQubits, maxGates int) *Circuit {
	n := r.Intn(maxQubits) + 2
	c := NewCircuit("random", n)
	kinds := []GateKind{GateH, GateX, GateZ, GateS, GateT, GateCX, GateCZ, GateMeasure, GatePrepZero}
	for i := 0; i < r.Intn(maxGates)+1; i++ {
		k := kinds[r.Intn(len(kinds))]
		if k.Arity() == 1 {
			c.Add(k, r.Intn(n))
		} else {
			a := r.Intn(n)
			b := r.Intn(n)
			for b == a {
				b = r.Intn(n)
			}
			c.Add(k, a, b)
		}
	}
	return c
}

// Property: circuit depth never exceeds gate count and per-kind counts sum to
// the total.
func TestStatsInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCircuit(r, 8, 60)
		s := c.ComputeStats()
		sum := 0
		for _, n := range s.CountByKind {
			sum += n
		}
		if sum != s.TotalGates {
			return false
		}
		if s.Depth > s.TotalGates {
			return false
		}
		if s.Transversal+s.NonTransversal != s.TotalGates {
			return false
		}
		return s.Pi8Gates <= s.NonTransversal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
