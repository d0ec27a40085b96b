package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"testing"
	"time"

	"speedofdata/internal/engine"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current outputs")

// smokeSize shrinks every workload about fifty-fold.
func smokeSize() size {
	return size{
		window: 100 * time.Millisecond,
		setups: 1, restarts: 1,
		reproBits: 8, scenarioBits: 8, fig4Trials: 2000, warmupOps: 1,
		serveBits: 8, serveTrials: 500, rate: 60, warmURLs: 8, warmTraceRequests: 200,
		layerReps: 1, noiseTrials: 500,
	}
}

// TestSmoke runs every workload, untraced and traced, at smoke size: every
// metric BENCHMARK.json names must be printed and no operation may fail.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				res, err := runWorkload(sp, w.Name, smokeSize(), 1, trace, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := sp.EndToEnd
				if trace {
					want = sp.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				if trace && res.Metrics["obs.dropped_spans"].Value != 0 {
					t.Errorf("traced run dropped %v spans", res.Metrics["obs.dropped_spans"].Value)
				}
			})
		}
	}
}

// TestGolden checks the full-size batch outputs at seed 1 against the
// committed digests; -update rewrites them.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full-size outputs")
	}
	got := map[string]string{}
	for _, b := range []batch{reproCold, simScale} {
		_, text, err := b.op(context.Background(), engine.New(0), fullSize(0), 1)
		if err != nil {
			t.Fatal(err)
		}
		got[b.name] = digest(text)
	}
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := goldenDigests()
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, golden %s (rerun with -update if the change is intended)", name, d, want[name])
		}
	}
}
