package circuits

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"speedofdata/internal/quantum"
)

// fingerprintFmt is Circuit.Fingerprint spelled with one fmt.Fprintf per
// gate.  Job keys embed fingerprints, and keys seed each job's RNG stream
// and address its store record, so Fingerprint must keep producing exactly
// these strings.
func fingerprintFmt(c *quantum.Circuit) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|", c.Name, c.NumQubits, len(c.Gates))
	for _, g := range c.Gates {
		fmt.Fprintf(h, "%d%v%g;", int(g.Kind), g.Qubits, g.Angle)
	}
	return fmt.Sprintf("%s/%d/%dq/%x", c.Name, len(c.Gates), c.NumQubits, h.Sum64())
}

func TestFingerprintMatchesFmt(t *testing.T) {
	var cs []*quantum.Circuit
	for _, bits := range []int{8, 32} {
		for _, b := range Benchmarks() {
			c, err := Generate(b, bits)
			if err != nil {
				t.Fatal(err)
			}
			cs = append(cs, c)
		}
	}
	// The benchmarks' angles are all zero; %g prints these differently.
	rot := quantum.NewCircuit("rotations", 3)
	for _, a := range []float64{1.0 / 16, -0.125, 1.0 / 3, 1e-21, 1e21, 123456789, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		rot.Append(quantum.Gate{Kind: quantum.GateRz, Qubits: []int{2}, Angle: a})
		rot.Append(quantum.Gate{Kind: quantum.GateCPhase, Qubits: []int{0, 1}, Angle: a})
	}
	cs = append(cs, rot, quantum.NewCircuit("empty", 0))
	for _, c := range cs {
		if got, want := c.Fingerprint(), fingerprintFmt(c); got != want {
			t.Errorf("%s: Fingerprint() = %s, want %s", c.Name, got, want)
		}
	}
}

// The memos are filled on first use from whichever goroutine gets there
// first; every caller must see the same values.  CI runs this under -race.
func TestCircuitMemosAgreeAcrossGoroutines(t *testing.T) {
	c, err := Generate(QCLA, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintFmt(c)
	const n = 8
	var (
		wg   sync.WaitGroup
		fps  [n]string
		errs [n]error
		dags [n]*quantum.DAG
	)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Rotate the call order so each memo is raced for first.
			for j := range 3 {
				switch (i + j) % 3 {
				case 0:
					fps[i] = c.Fingerprint()
				case 1:
					errs[i] = c.Validate()
				case 2:
					dags[i] = c.DAG()
				}
			}
		}()
	}
	wg.Wait()
	for i := range n {
		if fps[i] != want || errs[i] != nil || dags[i] != dags[0] || dags[i] == nil {
			t.Errorf("goroutine %d: Fingerprint %s, Validate %v, DAG %p; want %s, nil, %p",
				i, fps[i], errs[i], dags[i], want, dags[0])
		}
	}
}
