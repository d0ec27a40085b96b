// Command bench is the repository's benchmark: end-to-end metrics of four
// workloads (regenerating the paper, replaying the event-driven scenarios,
// cold and warm HTTP serving) and, in a traced run, metrics of each layer.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh -compare old.jsonl new.jsonl
//
// A run generates every input from the seed, measures for the given seconds,
// checks the program's outputs, and prints one JSON line: correct, attempted,
// failed, and the metrics BENCHMARK.json (read from the current directory)
// lists, end_to_end with --trace 0 and per_layer with --trace 1, each with
// its unit.  A readable copy and notes go to standard error.  -compare reads
// two files of such lines (runs of one workload, before and after a change)
// and prints each metric's median, spread and change against its bound; it
// exits 1 if a bounded metric regressed, or if its spread is too wide to
// tell.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 0, "measured seconds per run (0 = run_seconds of the spec)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	compare := fs.Bool("compare", false, "compare two files of result lines: -compare old.jsonl new.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		old, err := readResults(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		cur, err := readResults(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !compareResults(stdout, sp, old, cur) {
			return 1
		}
		return 0
	}
	secs := *seconds
	if secs <= 0 {
		secs = sp.RunSeconds
	}
	res, err := runWorkload(sp, *name, fullSize(time.Duration(secs)*time.Second), *seed, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runWorkload runs one workload and matches its metrics against the spec:
// every end-to-end metric for an untraced run, every per-layer metric for a
// traced one.
func runWorkload(sp benchSpec, name string, sz size, seed int64, trace bool, log io.Writer) (result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	listed := false
	for _, sw := range sp.Workloads {
		listed = listed || sw.Name == name
	}
	if w == nil || !listed {
		return result{}, fmt.Errorf("unknown workload %q", name)
	}
	f, want := w.run, sp.EndToEnd
	if trace {
		f, want = w.trace, sp.PerLayer
	}
	refs := hostRefs(3)
	out, err := f(sz, seed, log)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	refs = append(refs, hostRefs(3)...)
	fmt.Fprintf(log, "%s: host reference loop %.2f ms at start, %.2f ms at end\n",
		name, median(refs[:3]), median(refs[3:]))
	if trace {
		out.metrics["bench.host_ref_ms"] = median(refs)
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		out.metrics["peak_rss_mb"] = rss
	}
	for _, p := range out.problems {
		fmt.Fprintln(log, "check failed:", p)
	}
	res := result{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	for _, ms := range want {
		v, ok := out.metrics[ms.Name]
		if !ok {
			return result{}, fmt.Errorf("%s produced no metric %q", name, ms.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s: metric %q is %v", name, ms.Name, v)
		}
		res.Metrics[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
		fmt.Fprintf(log, "%-34s %16.6g %s\n", ms.Name, v, ms.Unit)
	}
	fmt.Fprintf(log, "%s: %d attempted, %d failed, correct=%v\n", name, res.Attempted, res.Failed, res.Correct)
	return res, nil
}
