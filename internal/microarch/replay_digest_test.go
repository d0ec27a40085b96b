package microarch

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"speedofdata/internal/iontrap"
	"speedofdata/internal/network"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/replay_digest.txt from this build")

// TestReplayDigest pins the replays no oracle checks: finite-buffer and
// faulted runs.  It replays a fixed, seeded set of random small
// configurations — buffered Simulate, buffered multi-circuit
// schedule.ReplayShared, and network.ReplayShared with finite link buffers
// under no faults, static faults, faults scheduled mid-run and partitioning
// faults — and compares the SHA-256 of every %+v result and error string
// (events, stalls, high-water marks, link and fault statistics) with the
// committed digest.  Run it with -update only for a change meant to alter
// these replays.
func TestReplayDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := sha256.New()
	digestSimulate(t, rng, h)
	digestSchedule(rng, h)
	digestNetwork(t, rng, h)
	got := hex.EncodeToString(h.Sum(nil))

	path := filepath.Join("testdata", "replay_digest.txt")
	if *updateDigest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test ./internal/microarch -run TestReplayDigest -update creates it)", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("replay digest %s, want %s: a finite-buffer or faulted replay changed", got, strings.TrimSpace(string(want)))
	}
}

// digestSimulate hashes buffered Simulate runs over random circuits,
// architectures, scales, cache sizes, meshes and buffer capacities.
func digestSimulate(t *testing.T, rng *rand.Rand, h io.Writer) {
	archs := Architectures()
	for i := 0; i < 40; i++ {
		c := randomCircuit(rng, 10, 60)
		cfg := DefaultConfig(archs[rng.Intn(len(archs))])
		cfg.GeneratorsPerQubit = 1 + rng.Intn(4)
		cfg.SharedFactories = 1 + rng.Intn(4)
		cfg.CacheSlots = 1 + rng.Intn(8)
		cfg.BufferAncillae = float64(1 + rng.Intn(12))
		if rng.Intn(2) == 0 {
			cfg.Network = network.NewTopology(1 + rng.Intn(6))
		}
		res, err := Simulate(c, cfg)
		fmt.Fprintf(h, "simulate %d %s %d: %+v %v\n", i, c.Fingerprint(), len(c.Gates), res, err)
		if err != nil {
			t.Fatalf("simulate %d: %v", i, err)
		}
	}
}

// digestSchedule hashes buffered multi-circuit shared-supply replays.
func digestSchedule(rng *rand.Rand, h io.Writer) {
	m := schedule.DefaultLatencyModel()
	for i := 0; i < 30; i++ {
		cs := make([]*quantum.Circuit, 1+rng.Intn(3))
		for j := range cs {
			cs[j] = randomCircuit(rng, 10, 60)
		}
		supply := schedule.Supply{
			RatePerMs:      float64(int(1) << rng.Intn(12)),
			BufferAncillae: float64(1 + rng.Intn(16)),
		}
		run, err := schedule.ReplayShared(cs, m, supply)
		fmt.Fprintf(h, "schedule %d %+v: %+v %v\n", i, supply, run, err)
	}
}

// digestNetwork hashes routed-mesh replays with finite link buffers under
// four fault plans: none; static dead and degraded links; a link degrading
// and then a physical link (both directions) dying mid-run; and every link
// dead, which partitions any mesh with cross-tile traffic.
func digestNetwork(t *testing.T, rng *rand.Rand, h io.Writer) {
	m := schedule.DefaultLatencyModel()
	for i := 0; i < 64; i++ {
		cs := make([]*quantum.Circuit, 1+rng.Intn(2))
		qubits := 0
		for j := range cs {
			cs[j] = randomCircuit(rng, 16, 120)
			qubits = max(qubits, cs[j].NumQubits)
		}
		cfg, err := network.PlanConfig(m, qubits, 2+rng.Intn(5), float64(int(1)<<rng.Intn(12)), 0)
		if err != nil {
			t.Fatalf("network %d: %v", i, err)
		}
		cfg.LinkEPRPerMs = float64(int(1)<<rng.Intn(10)) / 4
		cfg.LinkBufferPairs = float64(1 + rng.Intn(8))
		links := network.NewTopology(len(cfg.Machine.Tiles)).Links()
		switch mode := i % 4; {
		case mode == 0 || len(links) == 0:
		case mode == 1:
			for _, l := range links {
				if rng.Intn(len(links)) < 2 {
					cfg.Faults = append(cfg.Faults, network.LinkFault{Link: l, Dead: rng.Intn(2) == 0,
						RateFactor: 0.1 + 0.8*rng.Float64()})
				}
			}
		case mode == 2:
			clean, err := network.ReplayShared(cs, cfg)
			if err != nil {
				t.Fatalf("network %d: %v", i, err)
			}
			at := clean.Makespan * iontrap.Microseconds(0.05+0.7*rng.Float64())
			slow, dead := links[rng.Intn(len(links))], links[rng.Intn(len(links))]
			cfg.Faults = network.FaultPlan{
				{Link: slow, At: at / 2, RateFactor: 0.1 + 0.8*rng.Float64()},
				{Link: dead, At: at, Dead: true},
				{Link: network.Link{From: dead.To, To: dead.From}, At: at, Dead: true},
			}
		default:
			for _, l := range links {
				cfg.Faults = append(cfg.Faults, network.LinkFault{Link: l, Dead: true})
			}
		}
		run, err := network.ReplayShared(cs, cfg)
		fmt.Fprintf(h, "network %d %v %v %+v: %+v %v\n", i, cfg.LinkEPRPerMs, cfg.LinkBufferPairs, cfg.Faults, run, err)
	}
}
