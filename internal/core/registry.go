package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"speedofdata/internal/circuits"
	"speedofdata/internal/engine"
	"speedofdata/internal/factory"
	"speedofdata/internal/iontrap"
	"speedofdata/internal/microarch"
	"speedofdata/internal/noise"
	"speedofdata/internal/report"
	"speedofdata/internal/schedule"
)

// RunParams carries the per-request experiment settings shared by the qsd
// command-line flags and the HTTP API query parameters, each field bound by
// one row of the parameter table (Params).  Every field has a
// stable %v rendering, so a RunParams value participates directly in engine
// job fingerprints: two requests with equal parameters map to the same job
// key and the second is served from the engine cache (or coalesced onto the
// first while it is still running).
type RunParams struct {
	// Trials is the Monte Carlo effort for fig4.
	Trials int
	// Seed is the Monte Carlo seed for fig4.
	Seed int64
	// Buckets is the time-bucket count for fig7.
	Buckets int
	// MaxScale is the largest resource scale swept for fig15.
	MaxScale int
	// Benchmark selects the fig15 kernel (QRCA, QCLA or QFT).
	Benchmark string
	// Arch optionally restricts fig15 to one architecture ("" = all).
	Arch string
	// Buffer is the buffer capacity for the finite-buffer scenarios
	// (fig15buf, contention: encoded ancillae per source; factory-sim:
	// physical qubits per crossbar; netsweep, netcontention: EPR pairs per
	// link channel).  Zero means infinite.
	Buffer int
	// Tiles is the mesh tile bound for the network scenarios: netsweep
	// sweeps tile counts in powers of two up to it, netcontention, netfault
	// and netdegrade run one mesh planned for at most this many tiles (the
	// plan stops at the tiles the qubits fill).
	Tiles int
	// Faults is the boundary-failure bound of netdegrade: the sweep kills
	// mesh boundaries one by one up to this count (capped at the mesh's
	// boundary total).
	Faults int
	// Sparse switches the fig4 Monte Carlo to the sparse fault-set sampler
	// (geometric skipping, fault-free trials short-circuited).  The default
	// dense sampler is byte-identical across releases for a seed; sparse is
	// statistically equivalent and much faster at physical error rates.
	Sparse bool
	// BitSliced switches the fig4 Monte Carlo to the bit-sliced executor
	// (64 trials per word operation).  Statistically equivalent to dense
	// and sparse; mutually exclusive with Sparse.
	BitSliced bool
	// CI, when positive, switches fig4 to sequential sampling: run the
	// bit-sliced executor until the uncorrectable rate's Wilson interval
	// reaches this relative half-width (or Trials is spent), streaming
	// refining partial estimates.  Mutually exclusive with Sparse.
	CI float64
	// Conf is the confidence level of the CI stopping rule (0 means
	// noise.DefaultConfidence).  Requires CI.
	Conf float64
}

// DefaultBufferAncillae is the standard finite buffer capacity of the
// event-driven scenarios, in encoded ancillae per source.
const DefaultBufferAncillae = 16

// DefaultTiles is the standard mesh tile bound of the network scenarios.
const DefaultTiles = 4

// DefaultRunParams returns the paper's standard settings.
func DefaultRunParams() RunParams {
	return RunParams{
		Trials:    noise.DefaultTrials,
		Seed:      1,
		Buckets:   schedule.DefaultDemandBuckets,
		MaxScale:  microarch.DefaultMaxScale,
		Benchmark: circuits.QCLA.String(),
		Buffer:    DefaultBufferAncillae,
		Tiles:     DefaultTiles,
		// On the default 2x2 mesh, four boundary failures sweep past the
		// partition point.
		Faults: 4,
	}
}

// SamplingConflictError reports a request that selects mutually exclusive
// fig4 sampling modes.  It lists the allowed combinations so CLI and HTTP
// users see how to fix the request rather than having one selector silently
// win.
type SamplingConflictError struct {
	// Selected are the conflicting selectors as their flag/query spellings.
	Selected []string
}

func (e *SamplingConflictError) Error() string {
	return fmt.Sprintf("sampling selectors %s are mutually exclusive; allowed: none (dense), sparse alone, bitsliced alone, ci alone or with conf, ci+bitsliced",
		strings.Join(e.Selected, "+"))
}

// ExperimentInfo describes one registered experiment for listings (the qsd
// usage text and the HTTP API index).
type ExperimentInfo struct {
	// ID is the canonical experiment id.
	ID string
	// Title is the human-readable name (the paper table/figure it renders).
	Title string
	// Aliases are alternate ids accepted for the same experiment.
	Aliases []string
	// Params names the rows of the parameter table (Params) the experiment
	// honours.
	Params []string
}

// renderFunc regenerates one experiment as a structured report section.
type renderFunc func(e Experiments, p RunParams) (report.Section, error)

// experiment is one registry entry.
type experiment struct {
	info   ExperimentInfo
	render renderFunc
}

// registry maps every canonical experiment id to its entry; aliases are
// resolved by CanonicalExperimentID.
var registry = map[string]experiment{
	"table1": {
		info:   ExperimentInfo{ID: "table1", Title: "Tables 1 and 4: ion trap physical operation latencies", Aliases: []string{"table4"}},
		render: func(Experiments, RunParams) (report.Section, error) { return renderTechnology() },
	},
	"table2": {
		info:   ExperimentInfo{ID: "table2", Title: "Table 2: critical-path latency split", Params: []string{"bits"}},
		render: func(e Experiments, _ RunParams) (report.Section, error) { return renderCharacterization(e, "table2") },
	},
	"table3": {
		info:   ExperimentInfo{ID: "table3", Title: "Table 3: encoded ancilla bandwidths at the speed of data", Params: []string{"bits"}},
		render: func(e Experiments, _ RunParams) (report.Section, error) { return renderCharacterization(e, "table3") },
	},
	"table5": {
		info:   ExperimentInfo{ID: "table5", Title: "Table 5: pipelined zero-factory functional units"},
		render: func(e Experiments, _ RunParams) (report.Section, error) { return renderTable5(e) },
	},
	"table6": {
		info:   ExperimentInfo{ID: "table6", Title: "Table 6: pipelined encoded-zero factory", Aliases: []string{"zero-factory"}},
		render: func(e Experiments, _ RunParams) (report.Section, error) { return renderZeroFactory(e) },
	},
	"table7": {
		info:   ExperimentInfo{ID: "table7", Title: "Table 7: encoded pi/8 factory stages"},
		render: func(e Experiments, _ RunParams) (report.Section, error) { return renderTable7(e) },
	},
	"table8": {
		info:   ExperimentInfo{ID: "table8", Title: "Table 8: encoded pi/8 factory", Aliases: []string{"pi8-factory"}},
		render: func(e Experiments, _ RunParams) (report.Section, error) { return renderPi8Factory(e) },
	},
	"table9": {
		info:   ExperimentInfo{ID: "table9", Title: "Table 9: chip area breakdown (Qalypso)", Aliases: []string{"qalypso"}, Params: []string{"bits"}},
		render: func(e Experiments, _ RunParams) (report.Section, error) { return renderTable9(e) },
	},
	"simple-factory": {
		info:   ExperimentInfo{ID: "simple-factory", Title: "Section 4.3: simple encoded-zero factory"},
		render: func(e Experiments, _ RunParams) (report.Section, error) { return renderSimpleFactory(e) },
	},
	"fig4": {
		info: ExperimentInfo{ID: "fig4", Title: "Figure 4: encoded-zero preparation error rates", Aliases: []string{"figure4"}, Params: []string{"trials", "seed", "sparse", "bitsliced", "ci", "conf"}},
		render: func(e Experiments, p RunParams) (report.Section, error) {
			if p.CI > 0 {
				return renderFigure4CI(e, p.CI, p.Conf, p.Trials, p.Seed)
			}
			sampling := noise.SamplingDense
			switch {
			case p.Sparse:
				sampling = noise.SamplingSparse
			case p.BitSliced:
				sampling = noise.SamplingBitSliced
			}
			return renderFigure4(e, p.Trials, p.Seed, sampling)
		},
	},
	"fig7": {
		info:   ExperimentInfo{ID: "fig7", Title: "Figure 7: ancilla demand profiles", Aliases: []string{"figure7"}, Params: []string{"bits", "buckets"}},
		render: func(e Experiments, p RunParams) (report.Section, error) { return renderFigure7(e, p.Buckets) },
	},
	"fig8": {
		info:   ExperimentInfo{ID: "fig8", Title: "Figure 8: execution time vs ancilla throughput", Aliases: []string{"figure8"}, Params: []string{"bits"}},
		render: func(e Experiments, _ RunParams) (report.Section, error) { return renderFigure8(e) },
	},
	"fig15": {
		info: ExperimentInfo{ID: "fig15", Title: "Figure 15: execution time vs ancilla factory area", Aliases: []string{"figure15"}, Params: []string{"bits", "benchmark", "max-scale", "arch"}},
		render: func(e Experiments, p RunParams) (report.Section, error) {
			return renderFigure15(e, p.Benchmark, p.MaxScale, p.Arch)
		},
	},
	"fig15buf": {
		info: ExperimentInfo{ID: "fig15buf", Title: "Figure 15 with finite ancilla buffers (event-driven)",
			Aliases: []string{"figure15-buffered"}, Params: []string{"bits", "benchmark", "max-scale", "arch", "buffer"}},
		render: func(e Experiments, p RunParams) (report.Section, error) {
			return renderFigure15Buffered(e, p.Benchmark, p.MaxScale, p.Arch, p.Buffer)
		},
	},
	"buffersweep": {
		info: ExperimentInfo{ID: "buffersweep", Title: "Ancilla buffer capacity sweep (event-driven)",
			Aliases: []string{"buffer-sweep"}, Params: []string{"bits", "benchmark", "arch"}},
		render: func(e Experiments, p RunParams) (report.Section, error) {
			return renderBufferSweep(e, p.Benchmark, p.Arch)
		},
	},
	"contention": {
		info: ExperimentInfo{ID: "contention", Title: "Co-scheduled benchmarks contending for one shared ancilla supply",
			Aliases: []string{"co-schedule"}, Params: []string{"bits", "buffer"}},
		render: func(e Experiments, p RunParams) (report.Section, error) {
			return renderContention(e, p.Buffer)
		},
	},
	"netsweep": {
		info: ExperimentInfo{ID: "netsweep", Title: "Teleportation network: execution time vs link bandwidth and tile count",
			Aliases: []string{"network-sweep"}, Params: []string{"bits", "benchmark", "tiles", "buffer"}},
		render: func(e Experiments, p RunParams) (report.Section, error) {
			return renderNetSweep(e, p.Benchmark, p.Tiles, p.Buffer)
		},
	},
	"netcontention": {
		info: ExperimentInfo{ID: "netcontention", Title: "Teleportation network: co-scheduled benchmarks sharing one mesh",
			Aliases: []string{"network-contention"}, Params: []string{"bits", "tiles", "buffer"}},
		render: func(e Experiments, p RunParams) (report.Section, error) {
			return renderNetContention(e, p.Tiles, p.Buffer)
		},
	},
	"netfault": {
		info: ExperimentInfo{ID: "netfault", Title: "Teleportation network under faults: dead and degraded EPR links",
			Aliases: []string{"network-fault"}, Params: []string{"bits", "benchmark", "tiles", "buffer"}},
		render: func(e Experiments, p RunParams) (report.Section, error) {
			return renderNetFault(e, p.Benchmark, p.Tiles, p.Buffer)
		},
	},
	"netdegrade": {
		info: ExperimentInfo{ID: "netdegrade", Title: "Teleportation network: link failures until the mesh partitions",
			Aliases: []string{"network-degrade"}, Params: []string{"bits", "benchmark", "tiles", "buffer", "faults"}},
		render: func(e Experiments, p RunParams) (report.Section, error) {
			return renderNetDegrade(e, p.Benchmark, p.Tiles, p.Buffer, p.Faults)
		},
	},
	"factory-sim": {
		info: ExperimentInfo{ID: "factory-sim", Title: "Event-driven factory pipelines: measured vs bandwidth-matched throughput",
			Aliases: []string{"pipeline-sim"}, Params: []string{"buffer"}},
		render: func(e Experiments, p RunParams) (report.Section, error) {
			return renderFactorySim(e, p.Buffer)
		},
	},
	"fowler": {
		info:   ExperimentInfo{ID: "fowler", Title: "Section 2.5 / Figure 6: H/T rotation synthesis"},
		render: func(e Experiments, _ RunParams) (report.Section, error) { return renderFowler(e) },
	},
	"shor": {
		info:   ExperimentInfo{ID: "shor", Title: "Extension: Shor's algorithm resource estimate", Params: []string{"bits"}},
		render: func(e Experiments, _ RunParams) (report.Section, error) { return renderShor(e) },
	},
}

// AllExperimentOrder is the presentation order of `qsd all` and of the
// aggregate HTTP report.  The Monte Carlo and grid-heavy experiments (fig4,
// fig15) are excluded to keep the aggregate run fast; they remain
// individually addressable.
var AllExperimentOrder = []string{
	"table1", "table2", "table3", "table5", "table6", "table7", "table8",
	"table9", "fig7", "fig8", "fowler",
}

// ExperimentIDs returns every canonical experiment id, sorted.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ExperimentInfos returns the registry metadata sorted by id.
func ExperimentInfos() []ExperimentInfo {
	infos := make([]ExperimentInfo, 0, len(registry))
	for _, id := range ExperimentIDs() {
		infos = append(infos, registry[id].info)
	}
	return infos
}

// CanonicalExperimentID resolves an id or alias (case-insensitive) to the
// canonical experiment id, reporting whether it is known.  "all" is not an
// experiment; callers expand it with AllExperimentOrder.
func CanonicalExperimentID(id string) (string, bool) {
	id = strings.ToLower(id)
	if _, ok := registry[id]; ok {
		return id, true
	}
	for canon, exp := range registry {
		for _, a := range exp.info.Aliases {
			if id == a {
				return canon, true
			}
		}
	}
	return "", false
}

// RunExperiment regenerates one experiment (by id or alias) as a structured
// section, dispatching its inner sweeps through e.Engine.
func RunExperiment(e Experiments, id string, p RunParams) (report.Section, error) {
	canon, ok := CanonicalExperimentID(id)
	if !ok {
		return report.Section{}, fmt.Errorf("unknown experiment %q", id)
	}
	sec, err := registry[canon].render(e, p)
	if err != nil {
		return report.Section{}, fmt.Errorf("%s: %w", id, err)
	}
	sec.ID = id
	return sec, nil
}

// RunReport regenerates the requested experiments as one engine job batch
// and collects the sections in request order.  Experiments that share work
// (e.g. the Table 2/3 characterisations feeding Figure 8) hit the engine's
// result cache through their inner jobs, and identical concurrent requests
// coalesce onto one in-flight computation.
func RunReport(ctx context.Context, e Experiments, p RunParams, ids []string) (report.Document, error) {
	jobs := make([]engine.Job[report.Section], len(ids))
	for i, id := range ids {
		id := id
		if _, ok := CanonicalExperimentID(id); !ok {
			return report.Document{}, fmt.Errorf("unknown experiment %q", id)
		}
		jobs[i] = engine.Job[report.Section]{
			Key: engine.Fingerprint("qsd", id, e.Bits, p),
			Run: func(ctx context.Context, _ *rand.Rand) (report.Section, error) {
				// Bound the experiment's nested batches by the batch context
				// so cancelling the request stops the inner sweeps too.
				e := e
				e.Ctx = ctx
				return RunExperiment(e, id, p)
			},
		}
	}
	sections, err := engine.Run(ctx, e.Engine, jobs)
	if err != nil {
		return report.Document{}, err
	}
	var doc report.Document
	for _, sec := range sections {
		doc.AddSection(sec)
	}
	return doc, nil
}

func renderTechnology() (report.Section, error) {
	tech := iontrap.Default()
	tb := report.Table{
		Title:   "Tables 1 and 4: ion trap physical operation latencies",
		Headers: []string{"Operation", "Symbol", "Latency (us)"},
	}
	names := map[iontrap.Op]string{
		iontrap.OpOneQubitGate: "One-Qubit Gate",
		iontrap.OpTwoQubitGate: "Two-Qubit Gate",
		iontrap.OpMeasure:      "Measurement",
		iontrap.OpZeroPrep:     "Zero Prepare",
		iontrap.OpStraightMove: "Straight Move",
		iontrap.OpTurn:         "Turn",
	}
	for _, op := range iontrap.Ops() {
		tb.AddRow(names[op], op.String(), float64(tech.LatencyOf(op)))
	}
	return report.NewSection(tb), nil
}

func renderCharacterization(e Experiments, id string) (report.Section, error) {
	rows, err := e.Table2And3()
	if err != nil {
		return report.Section{}, err
	}
	if id == "table2" {
		tb := report.Table{
			Title: "Table 2: critical-path latency split (no overlap)",
			Headers: []string{"Circuit", "Data Op (us)", "%", "QEC Interact (us)", "%",
				"Ancilla Prep (us)", "%", "Speed-of-data (us)", "Speedup"},
		}
		for _, r := range rows {
			d, i, p := r.Fractions()
			tb.AddRow(r.Name, float64(r.DataOpLatency), pct(d), float64(r.QECInteractLatency), pct(i),
				float64(r.AncillaPrepLatency), pct(p), float64(r.SpeedOfDataTime), r.Speedup())
		}
		return report.NewSection(tb), nil
	}
	tb := report.Table{
		Title:   "Table 3: average encoded ancilla bandwidths at the speed of data",
		Headers: []string{"Circuit", "Zero ancillae/ms (QEC)", "pi/8 ancillae/ms", "Total gates", "pi/8 gates"},
	}
	for _, r := range rows {
		tb.AddRow(r.Name, r.ZeroBandwidthPerMs, r.Pi8BandwidthPerMs, r.TotalGates, r.Pi8Gates)
	}
	return report.NewSection(tb), nil
}

func renderTable5(e Experiments) (report.Section, error) {
	return report.NewSection(unitTable("Table 5: pipelined zero-factory functional units", e.Table5())), nil
}

func renderTable7(e Experiments) (report.Section, error) {
	return report.NewSection(unitTable("Table 7: encoded pi/8 factory stages", e.Table7())), nil
}

func renderZeroFactory(e Experiments) (report.Section, error) {
	_, zero, _ := e.FactoryDesigns()
	return designSection("Table 6 / Section 4.4.1: pipelined encoded-zero factory", zero), nil
}

func renderPi8Factory(e Experiments) (report.Section, error) {
	_, _, pi8 := e.FactoryDesigns()
	return designSection("Table 8 / Section 4.4.2: encoded pi/8 factory", pi8), nil
}

func renderSimpleFactory(e Experiments) (report.Section, error) {
	simple, _, _ := e.FactoryDesigns()
	var b strings.Builder
	fmt.Fprintf(&b, "Simple encoded-zero factory (Section 4.3)\n")
	fmt.Fprintf(&b, "  latency    : %s = %v us\n", simple.Latency(), simple.LatencyUs())
	fmt.Fprintf(&b, "  throughput : %.1f encoded ancillae / ms\n", simple.ThroughputPerMs())
	fmt.Fprintf(&b, "  area       : %v macroblocks\n", simple.Area())
	return report.NewSection(report.Text(b.String())), nil
}

func unitTable(title string, rows []Table5Row) report.Table {
	tb := report.Table{
		Title:   title,
		Headers: []string{"Functional Unit", "Symbolic Latency", "Latency (us)", "Stages", "In BW (q/ms)", "Out BW (q/ms)", "Area"},
	}
	for _, r := range rows {
		tb.AddRow(r.Name, r.SymbolicLatency, r.LatencyUs, r.Stages, r.InBWPerMs, r.OutBWPerMs, r.Area)
	}
	return tb
}

func designSection(title string, d factory.Design) report.Section {
	tb := report.Table{
		Title:   title,
		Headers: []string{"Stage", "Unit", "Count", "Total Height", "Total Area"},
	}
	for _, s := range d.Stages {
		for _, a := range s.Allocations {
			tb.AddRow(s.Name, a.Unit.Name, a.Count, a.TotalHeight(), float64(a.TotalArea()))
		}
	}
	foot := fmt.Sprintf("functional area %v + crossbar area %v = %v macroblocks; throughput %.1f encoded ancillae/ms\n",
		d.FunctionalArea(), d.CrossbarArea(), d.TotalArea(), d.ThroughputPerMs)
	return report.NewSection(tb, report.Text(foot))
}

func renderTable9(e Experiments) (report.Section, error) {
	rows, err := e.Table9()
	if err != nil {
		return report.Section{}, err
	}
	tb := report.Table{
		Title: "Table 9: area breakdown to generate encoded ancillae at the Table 3 bandwidths",
		Headers: []string{"Circuit", "Zero BW (/ms)", "Data Area", "%", "QEC Factories", "%",
			"pi/8 Factories", "%", "Total"},
	}
	for _, r := range rows {
		d, q, p := r.Fractions()
		tb.AddRow(r.Name, r.ZeroBandwidthPerMs, float64(r.DataArea), pct(d),
			float64(r.QECFactoryArea), pct(q), float64(r.Pi8FactoryArea), pct(p), float64(r.TotalArea()))
	}
	return report.NewSection(tb), nil
}

func renderFigure4(e Experiments, trials int, seed int64, sampling noise.Sampling) (report.Section, error) {
	rows, err := e.Figure4Sampled(trials, seed, sampling)
	if err != nil {
		return report.Section{}, err
	}
	tb := report.Table{
		Title: "Figure 4: encoded-zero preparation error rates (uncorrectable = logical error after ideal decode)",
		Headers: []string{"Circuit", "Paper rate", "First-order uncorrectable", "MC uncorrectable", "MC residual",
			"Verify reject", "Physical ops"},
	}
	for _, r := range rows {
		tb.AddRow(r.Name, r.PaperRate, r.FirstOrder.UncorrectableRate, r.MonteCarlo.UncorrectableRate,
			r.MonteCarlo.ResidualRate, r.MonteCarlo.RejectRate, r.Ops.Total())
	}
	return report.NewSection(tb), nil
}

func renderFigure4CI(e Experiments, epsilon, confidence float64, maxTrials int, seed int64) (report.Section, error) {
	rows, err := e.Figure4Target(epsilon, confidence, maxTrials, seed)
	if err != nil {
		return report.Section{}, err
	}
	conf := confidence
	if conf == 0 {
		conf = noise.DefaultConfidence
	}
	tb := report.Table{
		Title: fmt.Sprintf("Figure 4, sequential sampling to %.3g relative half-width at %.2g confidence (bit-sliced, cap %d trials)",
			epsilon, conf, maxTrials),
		Headers: []string{"Circuit", "Paper rate", "MC uncorrectable", "MC residual", "Verify reject",
			"Trials used", "Converged"},
	}
	for _, r := range rows {
		tb.AddRow(r.Name, r.PaperRate, r.MonteCarlo.UncorrectableRate, r.MonteCarlo.ResidualRate,
			r.MonteCarlo.RejectRate, r.MonteCarlo.Trials, r.Converged)
	}
	note := report.Text("Unconverged rows spent the full trial cap without meeting the half-width target " +
		"(rare-event rates need more trials; raise -trials or loosen -ci).\n")
	return report.NewSection(tb, note), nil
}

func renderFigure7(e Experiments, buckets int) (report.Section, error) {
	profiles, err := e.Figure7(buckets)
	if err != nil {
		return report.Section{}, err
	}
	var blocks []report.Block
	for _, name := range sortedKeys(profiles) {
		s := report.Series{
			Title:  fmt.Sprintf("Figure 7 (%s): encoded zero ancillae needed per time bucket", name),
			XLabel: "time (ms)", YLabel: "encoded zero ancillae",
		}
		for _, p := range profiles[name] {
			s.Add(p.TimeMs, float64(p.ZeroAncillae))
		}
		blocks = append(blocks, s, report.Text("\n"))
	}
	return report.Section{Blocks: blocks}, nil
}

func renderFigure8(e Experiments) (report.Section, error) {
	sweeps, err := e.Figure8()
	if err != nil {
		return report.Section{}, err
	}
	var blocks []report.Block
	for _, name := range sortedKeys(sweeps) {
		s := report.Series{
			Title:  fmt.Sprintf("Figure 8 (%s): execution time vs steady zero-ancilla throughput", name),
			XLabel: "ancillae/ms", YLabel: "execution time (ms)",
		}
		for _, p := range sweeps[name] {
			s.Add(p.ThroughputPerMs, p.ExecutionTimeMs)
		}
		blocks = append(blocks, s, report.Text("\n"))
	}
	return report.Section{Blocks: blocks}, nil
}

func renderFigure15(e Experiments, benchName string, maxScale int, archName string) (report.Section, error) {
	bench, archs, err := parseFig15Selection(benchName, archName)
	if err != nil {
		return report.Section{}, err
	}
	curves, err := e.Figure15Buffered(bench, maxScale, archs, 0)
	if err != nil {
		return report.Section{}, err
	}
	tb := report.Table{
		Title:   fmt.Sprintf("Figure 15 (%d-bit %s): execution time vs ancilla factory area", e.Bits, bench),
		Headers: []string{"Architecture", "Scale", "Factory area (macroblocks)", "Execution time (ms)"},
	}
	for _, arch := range archs {
		for _, p := range curves[arch].Points {
			tb.AddRow(arch.String(), p.Scale, p.AreaMacroblocks, p.ExecutionTimeMs)
		}
	}
	return report.NewSection(tb), nil
}

// parseFig15Selection resolves the benchmark and optional architecture filter
// shared by the fig15 and fig15buf renderers.
func parseFig15Selection(benchName, archName string) (circuits.Benchmark, []microarch.Architecture, error) {
	bench, err := circuits.ParseBenchmark(benchName)
	if err != nil {
		return 0, nil, err
	}
	archs := microarch.Architectures()
	if archName != "" {
		arch, err := microarch.ParseArchitecture(archName)
		if err != nil {
			return 0, nil, err
		}
		archs = []microarch.Architecture{arch}
	}
	return bench, archs, nil
}

func renderFigure15Buffered(e Experiments, benchName string, maxScale int, archName string, buffer int) (report.Section, error) {
	bench, archs, err := parseFig15Selection(benchName, archName)
	if err != nil {
		return report.Section{}, err
	}
	curves, err := e.Figure15Buffered(bench, maxScale, archs, float64(buffer))
	if err != nil {
		return report.Section{}, err
	}
	tb := report.Table{
		Title: fmt.Sprintf("Figure 15, event-driven with %s-ancilla buffers (%d-bit %s)",
			bufferLabel(buffer), e.Bits, bench),
		Headers: []string{"Architecture", "Scale", "Factory area (macroblocks)", "Execution time (ms)",
			"Ancilla stall (ms)", "Buffer high water"},
	}
	for _, arch := range archs {
		for _, p := range curves[arch].Points {
			tb.AddRow(arch.String(), p.Scale, p.AreaMacroblocks, p.ExecutionTimeMs,
				p.AncillaStallMs, p.BufferHighWater)
		}
	}
	return report.NewSection(tb), nil
}

func renderBufferSweep(e Experiments, benchName, archName string) (report.Section, error) {
	bench, err := circuits.ParseBenchmark(benchName)
	if err != nil {
		return report.Section{}, err
	}
	arch := microarch.FullyMultiplexed
	if archName != "" {
		if arch, err = microarch.ParseArchitecture(archName); err != nil {
			return report.Section{}, err
		}
	}
	results, err := e.BufferSweep(bench, arch)
	if err != nil {
		return report.Section{}, err
	}
	caps := microarch.DefaultBufferCaps()
	tb := report.Table{
		Title: fmt.Sprintf("Ancilla buffer sweep (%d-bit %s on %v, demand-matched supply)", e.Bits, bench, arch),
		Headers: []string{"Buffer (ancillae)", "Execution time (ms)", "Ancilla stall (ms)",
			"Producer stall (ms)", "Buffer high water", "Kernel events"},
	}
	for i, r := range results {
		tb.AddRow(bufferLabel(int(caps[i])), r.ExecutionTimeMs(), r.AncillaStallTime.Milliseconds(),
			r.ProducerStallTime.Milliseconds(), r.BufferHighWater, r.Events)
	}
	note := report.Text("The final row is the infinite-buffer (closed-form) reference the finite capacities converge to.\n")
	return report.NewSection(tb, note), nil
}

func renderContention(e Experiments, buffer int) (report.Section, error) {
	levels, err := e.Contention(float64(buffer))
	if err != nil {
		return report.Section{}, err
	}
	tb := report.Table{
		Title: fmt.Sprintf("Co-scheduled benchmarks on one shared zero-ancilla supply (%d-bit, %s-ancilla buffer)",
			e.Bits, bufferLabel(buffer)),
		Headers: []string{"Supply (x avg demand)", "Rate (anc/ms)", "Benchmark", "Exec (ms)",
			"Speed-of-data (ms)", "Slowdown", "Ancilla wait (ms)", "Producer stall (ms)"},
	}
	for _, lv := range levels {
		for _, r := range lv.Run.Results {
			tb.AddRow(fmt.Sprintf("%.2fx", lv.DemandFraction), lv.Supply.RatePerMs, r.Name,
				r.ExecutionTime.Milliseconds(), r.SpeedOfData.Milliseconds(), r.Slowdown(),
				r.AncillaWait.Milliseconds(), lv.Run.ProducerStall.Milliseconds())
		}
	}
	note := report.Text("Each supply level replays all benchmarks concurrently against one factory bank; " +
		"bursty neighbours steal headroom even when the average supply matches the average demand.\n")
	return report.NewSection(tb, note), nil
}

func renderFactorySim(e Experiments, buffer int) (report.Section, error) {
	zero, pi8, err := e.FactoryPipelines(float64(buffer))
	if err != nil {
		return report.Section{}, err
	}
	var blocks []report.Block
	for _, r := range []factory.PipelineRun{zero, pi8} {
		tb := report.Table{
			Title: fmt.Sprintf("Event-driven %s (%v ms horizon, %s-qubit crossbar buffers)",
				r.Name, r.HorizonMs, bufferLabel(int(r.BufferQubits))),
			Headers: []string{"Stage", "Unit", "Count", "Ops", "Starve (ms)", "Stall (ms)", "Busy"},
		}
		for _, s := range r.Stages {
			tb.AddRow(s.Stage, s.Unit, s.Count, s.Ops, s.StarveMs, s.StallMs, s.BusyFrac)
		}
		foot := report.Text(fmt.Sprintf("measured %.2f encoded ancillae/ms vs bandwidth-matched %.2f/ms (%d kernel events)\n\n",
			r.MeasuredPerMs, r.AnalyticPerMs, r.Events))
		blocks = append(blocks, tb, foot)
	}
	return report.Section{Blocks: blocks}, nil
}

func renderNetSweep(e Experiments, benchName string, tiles, buffer int) (report.Section, error) {
	bench, err := circuits.ParseBenchmark(benchName)
	if err != nil {
		return report.Section{}, err
	}
	points, err := e.NetSweep(bench, tiles, buffer)
	if err != nil {
		return report.Section{}, err
	}
	tb := report.Table{
		Title: fmt.Sprintf("Teleportation network sweep (%d-bit %s, meshes up to %d tiles, %s-pair link buffers)",
			e.Bits, bench, tiles, bufferLabel(buffer)),
		Headers: []string{"Tiles", "Link BW factor", "Link BW (pairs/ms)", "Exec (ms)",
			"Network-blocked (ms)", "Ancilla wait (ms)", "Cross gates", "Mean hops", "Link high water"},
	}
	for _, p := range points {
		tb.AddRow(p.Tiles, fmt.Sprintf("%.2fx", p.LinkFactor), p.LinkEPRPerMs, p.ExecutionTimeMs,
			p.NetworkBlockedMs, p.AncillaWaitMs, p.CrossGates, p.MeanHops, p.MaxLinkHighWater)
	}
	note := report.Text("Each row replays the benchmark on a routed 2D mesh with per-link EPR-pair generators; " +
		"raising the link bandwidth monotonically drains the network-blocked share of the makespan.\n")
	return report.NewSection(tb, note), nil
}

func renderNetContention(e Experiments, tiles, buffer int) (report.Section, error) {
	levels, err := e.NetContention(tiles, buffer)
	if err != nil {
		return report.Section{}, err
	}
	tb := report.Table{
		Title: fmt.Sprintf("Co-scheduled benchmarks on one %d-tile teleportation mesh (%d-bit, %s-pair link buffers)",
			levels[0].Run.Topology.TileCount(), e.Bits, bufferLabel(buffer)),
		Headers: []string{"Link BW factor", "Benchmark", "Exec (ms)", "Speed-of-data (ms)", "Slowdown",
			"Network-blocked (ms)", "Ancilla wait (ms)", "Teleports", "Max link high water"},
	}
	for _, lv := range levels {
		for _, r := range lv.Run.Results {
			tb.AddRow(fmt.Sprintf("%.2fx", lv.LinkFactor), r.Name,
				r.ExecutionTime.Milliseconds(), r.SpeedOfData.Milliseconds(), r.Slowdown(),
				r.NetworkBlocked.Milliseconds(), r.AncillaWait.Milliseconds(), r.Teleports,
				lv.Run.MaxLinkHighWater())
		}
	}
	note := report.Text("All benchmarks run concurrently on one mesh: cross-tile teleports from different " +
		"programs queue at the same EPR links, so a chatty neighbour inflates everyone's network-blocked time.\n")
	return report.NewSection(tb, note), nil
}

func renderNetFault(e Experiments, benchName string, tiles, buffer int) (report.Section, error) {
	bench, err := circuits.ParseBenchmark(benchName)
	if err != nil {
		return report.Section{}, err
	}
	points, err := e.NetFault(bench, tiles, buffer)
	if err != nil {
		return report.Section{}, err
	}
	tb := report.Table{
		Title: fmt.Sprintf("Teleportation network under faults (%d-bit %s, %d-tile mesh, %s-pair link buffers)",
			e.Bits, bench, points[0].Tiles, bufferLabel(buffer)),
		Headers: []string{"Fault", "Link BW factor", "Link BW (pairs/ms)", "Exec (ms)", "Network-blocked (ms)",
			"Reroutes", "In-flight", "Detour hops", "Degraded wait (ms)", "Dead links"},
	}
	for i, p := range points {
		// Static plans strike before the first teleport, so none re-routes in flight.
		tb.AddRow(netFaultArms[i/len(netFaultFactors)].name, fmt.Sprintf("%.2fx", p.LinkFactor), p.LinkEPRPerMs,
			p.ExecutionTimeMs, p.NetworkBlockedMs, p.Faults.Reroutes, 0,
			p.Faults.DetourHops, p.Faults.DegradedWaitUs/1000.0, p.Faults.FailedLinks)
	}
	note := report.Text("Each link-bandwidth factor replays the benchmark three ways — pristine mesh, every link " +
		"degraded to 75% of its EPR rate, and the bisection boundary dead — with routes re-resolved around the " +
		"damage; any damage costs makespan over the pristine mesh, and at matched bandwidth and above the dead " +
		"link (detours) costs more than uniform degradation (at starved factors slowing every link can hurt more " +
		"than losing one).\n")
	return report.NewSection(tb, note), nil
}

func renderNetDegrade(e Experiments, benchName string, tiles, buffer, faults int) (report.Section, error) {
	bench, err := circuits.ParseBenchmark(benchName)
	if err != nil {
		return report.Section{}, err
	}
	rows, err := e.NetDegrade(bench, tiles, buffer, faults)
	if err != nil {
		return report.Section{}, err
	}
	tb := report.Table{
		Title: fmt.Sprintf("Link failures until partition (%d-bit %s, %d-tile mesh at matched link bandwidth, %s-pair link buffers)",
			e.Bits, bench, rows[0].Tiles, bufferLabel(buffer)),
		Headers: []string{"Boundaries dead", "Dead links", "Exec (ms)", "Network-blocked (ms)",
			"Reroutes", "In-flight", "Detour hops", "Mean hops", "Partitioned"},
	}
	for k, r := range rows {
		if r.Partitioned {
			tb.AddRow(k, r.Faults.FailedLinks, "-", "-", "-", "-", "-", "-", true)
			continue
		}
		// Static plans strike before the first teleport, so none re-routes in flight.
		tb.AddRow(k, r.Faults.FailedLinks, r.ExecutionTimeMs, r.NetworkBlockedMs,
			r.Faults.Reroutes, 0, r.Faults.DetourHops, r.MeanHops, false)
	}
	note := report.Text("Mesh boundaries die one by one (both directions each) in stable order while teleports " +
		"re-route around the damage; rows past the partition point report Partitioned instead of a makespan.\n")
	return report.NewSection(tb, note), nil
}

// bufferLabel renders a buffer capacity, spelling out the infinite case.
func bufferLabel(buffer int) string {
	if buffer <= 0 {
		return "infinite"
	}
	return fmt.Sprintf("%d", buffer)
}

func renderFowler(e Experiments) (report.Section, error) {
	res, err := e.Fowler(10)
	if err != nil {
		return report.Section{}, err
	}
	tb := report.Table{
		Title:   "Section 2.5: H/T approximation of pi/2^k rotations",
		Headers: []string{"k", "Sequence", "Length", "T count", "Error"},
	}
	for i, seq := range res.Sequences {
		tb.AddRow(res.TargetsK[i], seq.Gates, seq.Len(), seq.TCount(), seq.Error)
	}
	note := report.Text(fmt.Sprintf("modelled H/T sequence length at 1e-4 precision: %d gates\n\n", res.LengthAt1em4))
	tb2 := report.Table{
		Title:   "Figure 6: exact recursive pi/2^k cascade",
		Headers: []string{"k", "Factories", "Worst-case CX", "Expected CX", "Expected X"},
	}
	for _, c := range res.Cascade {
		tb2.AddRow(c.K, c.AncillaFactories, c.WorstCaseCX, c.ExpectedCX, c.ExpectedX)
	}
	return report.NewSection(tb, note, tb2), nil
}

func renderShor(e Experiments) (report.Section, error) {
	tb := report.Table{
		Title: fmt.Sprintf("Extension: Shor's algorithm resource estimate (%d-bit modulus, speed-of-data execution)", e.Bits),
		Headers: []string{"Adder", "Adder calls", "Exec time (s)", "Zero anc/ms", "pi/8 anc/ms",
			"Zero factories", "pi/8 factories", "Chip (macroblocks)", "Speedup vs no-overlap"},
	}
	ripple, lookahead, err := CompareShorAddersEngine(e.ctx(), e.Engine, e.Bits, e.Options)
	if err != nil {
		return report.Section{}, err
	}
	for _, est := range []ShorEstimate{ripple, lookahead} {
		tb.AddRow(est.Adder.String(), est.AdderInvocations, est.ExecutionTimeSeconds(),
			est.ZeroBandwidthPerMs, est.Pi8BandwidthPerMs, est.ZeroFactories, est.Pi8Factories,
			float64(est.ChipArea), est.Speedup())
	}
	return report.NewSection(tb), nil
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
