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
// first; every caller must see the same values, and the DAG's makespan memo
// one entry per weight array.  CI runs this under -race -count=10.
func TestCircuitMemosAgreeAcrossGoroutines(t *testing.T) {
	c, err := Generate(QCLA, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintFmt(c)
	var weights [2][quantum.NumGateKinds]float64
	var wantSpans [2]float64
	for i := range weights {
		for k := range quantum.NumGateKinds {
			weights[i][k] = float64(int(k)+1) / float64(i+3)
		}
		_, wantSpans[i] = quantum.BuildDAG(c).CriticalPath(&weights[i])
	}
	const n = 8
	var (
		wg    sync.WaitGroup
		fps   [n]string
		errs  [n]error
		dags  [n]*quantum.DAG
		spans [n][2]float64
	)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Rotate the call order so each memo is raced for first.
			for j := range 5 {
				switch (i + j) % 5 {
				case 0:
					fps[i] = c.Fingerprint()
				case 1:
					errs[i] = c.Validate()
				case 2:
					dags[i] = c.DAG()
				case 3:
					spans[i][0] = c.DAG().Makespan(&weights[0])
				case 4:
					spans[i][1] = c.DAG().Makespan(&weights[1])
				}
			}
		}()
	}
	wg.Wait()
	for i := range n {
		if fps[i] != want || errs[i] != nil || dags[i] != dags[0] || dags[i] == nil || spans[i] != wantSpans {
			t.Errorf("goroutine %d: Fingerprint %s, Validate %v, DAG %p, makespans %v; want %s, nil, %p, %v",
				i, fps[i], errs[i], dags[i], spans[i], want, dags[0], wantSpans)
		}
	}
}
