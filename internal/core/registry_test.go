package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"speedofdata/internal/engine"
	"speedofdata/internal/report"
)

// docText renders a document with the text encoder, as qsd prints it.
func docText(t *testing.T, d report.Document) string {
	t.Helper()
	var b strings.Builder
	if err := d.Encode(&b, report.FormatText); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// sectionText renders one section as qsd prints it alone.
func sectionText(t *testing.T, s report.Section) string {
	t.Helper()
	return docText(t, report.Document{Sections: []report.Section{s}})
}

func TestCanonicalExperimentID(t *testing.T) {
	cases := map[string]string{
		"table2":       "table2",
		"TABLE2":       "table2",
		"figure15":     "fig15",
		"fig15":        "fig15",
		"qalypso":      "table9",
		"zero-factory": "table6",
		"table4":       "table1",
	}
	for in, want := range cases {
		got, ok := CanonicalExperimentID(in)
		if !ok || got != want {
			t.Errorf("CanonicalExperimentID(%q) = %q, %v; want %q", in, got, ok, want)
		}
	}
	if _, ok := CanonicalExperimentID("nope"); ok {
		t.Error("unknown id should not resolve")
	}
	if _, ok := CanonicalExperimentID("all"); ok {
		t.Error(`"all" is not an experiment id`)
	}
}

func TestRegistryCoversAllOrder(t *testing.T) {
	for _, id := range AllExperimentOrder {
		if _, ok := CanonicalExperimentID(id); !ok {
			t.Errorf("AllExperimentOrder id %q is not registered", id)
		}
	}
	infos := ExperimentInfos()
	if len(infos) != len(ExperimentIDs()) {
		t.Fatal("infos and ids disagree")
	}
	for _, info := range infos {
		if info.Title == "" {
			t.Errorf("experiment %q has no title", info.ID)
		}
	}
}

// validate checks p as the CLI does, at the default operand width.
func validate(p RunParams) error {
	e := NewExperiments()
	return ValidateParams(&e, &p, false)
}

func TestRunParamsValidate(t *testing.T) {
	p := DefaultRunParams()
	if err := validate(p); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := p
	bad.Trials = 0
	if err := validate(bad); err == nil {
		t.Error("zero trials should fail")
	}
	// NaN compares false with every bound, so it must fail each range.
	bad = p
	bad.CI = math.NaN()
	if err := validate(bad); err == nil {
		t.Error("NaN ci should fail")
	}
	bad = p
	bad.CI, bad.Conf = 0.1, math.NaN()
	if err := validate(bad); err == nil {
		t.Error("NaN conf should fail")
	}
	e := NewExperiments()
	e.Bits = 0
	if err := ValidateParams(&e, &p, false); err == nil {
		t.Error("zero bits should fail")
	}
	bad = p
	bad.Benchmark = "QXYZ"
	if err := validate(bad); err == nil {
		t.Error("unknown benchmark should fail")
	}
	bad = p
	bad.Arch = "warp"
	if err := validate(bad); err == nil {
		t.Error("unknown arch should fail")
	}
	p.Arch = "cqla"
	if err := validate(p); err != nil {
		t.Errorf("compact arch spelling rejected: %v", err)
	}
}

// TestRunExperimentSections runs the cheap experiments end to end and checks
// the structured sections carry their ids and render non-empty text.
func TestRunExperimentSections(t *testing.T) {
	e := NewExperiments()
	p := DefaultRunParams()
	for _, id := range []string{"table1", "table5", "table6", "table7", "table8", "simple-factory"} {
		sec, err := RunExperiment(e, id, p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if sec.ID != id {
			t.Errorf("%s: section id = %q", id, sec.ID)
		}
		if len(sec.Blocks) == 0 || sectionText(t, sec) == "" {
			t.Errorf("%s: empty section", id)
		}
	}
	if _, err := RunExperiment(e, "nope", p); err == nil {
		t.Error("unknown id should error")
	}
}

// TestRunReportDeterministic renders the same batch twice on one engine and
// expects identical text, with the second render served from the cache.
func TestRunReportDeterministic(t *testing.T) {
	e := NewExperiments()
	e.Engine = engine.New(2)
	p := DefaultRunParams()
	ids := []string{"table1", "table5", "table6"}
	first, err := RunReport(context.Background(), e, p, ids)
	if err != nil {
		t.Fatal(err)
	}
	tiers0 := e.Engine.Tiers()
	second, err := RunReport(context.Background(), e, p, ids)
	if err != nil {
		t.Fatal(err)
	}
	tiers1 := e.Engine.Tiers()
	if docText(t, first) != docText(t, second) {
		t.Error("repeated report differs")
	}
	if tiers1.MemoryHits <= tiers0.MemoryHits {
		t.Errorf("expected cache hits on repeat, got %d -> %d", tiers0.MemoryHits, tiers1.MemoryHits)
	}
	if tiers1.MemoryMisses != tiers0.MemoryMisses {
		t.Errorf("repeat recomputed: misses %d -> %d", tiers0.MemoryMisses, tiers1.MemoryMisses)
	}
	if !strings.Contains(docText(t, first), "=== table5 ===") {
		t.Errorf("missing section banner:\n%s", docText(t, first))
	}
	if _, err := RunReport(context.Background(), e, p, []string{"bogus"}); err == nil {
		t.Error("unknown id in batch should error")
	}
}

// TestEventDrivenScenarioSections runs the new event-driven scenarios end to
// end at a small width and checks they render and honour their parameters.
func TestEventDrivenScenarioSections(t *testing.T) {
	e := NewExperiments()
	e.Bits = 4
	p := DefaultRunParams()
	p.MaxScale = 4
	p.Arch = "fm"
	for _, id := range []string{"fig15buf", "buffersweep", "contention", "factory-sim"} {
		sec, err := RunExperiment(e, id, p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if sec.ID != id || sectionText(t, sec) == "" {
			t.Errorf("%s: empty or mislabelled section", id)
		}
	}
	// Aliases resolve.
	for alias, want := range map[string]string{
		"figure15-buffered": "fig15buf",
		"buffer-sweep":      "buffersweep",
		"co-schedule":       "contention",
		"pipeline-sim":      "factory-sim",
	} {
		got, ok := CanonicalExperimentID(alias)
		if !ok || got != want {
			t.Errorf("alias %q resolved to %q, %v; want %q", alias, got, ok, want)
		}
	}
	// The finite buffer must show up in the rendered output.
	sec, err := RunExperiment(e, "fig15buf", p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sectionText(t, sec), "16-ancilla buffers") {
		t.Errorf("fig15buf should mention the default 16-ancilla buffer:\n%s", sectionText(t, sec))
	}
	// Negative buffer is rejected by parameter validation.
	bad := p
	bad.Buffer = -1
	if err := validate(bad); err == nil {
		t.Error("negative buffer should fail validation")
	}
}

// The contention scenario's per-benchmark slowdowns must ease monotonically
// as the shared supply grows.
func TestContentionSlowdownEasesWithSupply(t *testing.T) {
	e := NewExperiments()
	e.Bits = 4
	levels, err := e.Contention(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != len(DefaultContentionFractions) {
		t.Fatalf("got %d levels, want %d", len(levels), len(DefaultContentionFractions))
	}
	for bench := range levels[0].Run.Results {
		prev := -1.0
		for _, lv := range levels {
			s := lv.Run.Results[bench].Slowdown()
			if s < 1-1e-9 {
				t.Errorf("%s at %.2fx: slowdown %v below 1", lv.Run.Results[bench].Name, lv.DemandFraction, s)
			}
			if prev > 0 && s > prev*1.0001 {
				t.Errorf("%s: slowdown rose with more supply: %v -> %v", lv.Run.Results[bench].Name, prev, s)
			}
			prev = s
		}
	}
}

// TestNetworkScenarioRegistration keeps the two network scenarios in sync
// across both surfaces: they are listed with their aliases and parameters
// (the /v1/experiments index and the qsd usage text are both generated from
// ExperimentInfos), resolve from either spelling, and render end to end.
func TestNetworkScenarioRegistration(t *testing.T) {
	wantParams := map[string][]string{
		"netsweep":      {"bits", "benchmark", "tiles", "buffer"},
		"netcontention": {"bits", "tiles", "buffer"},
		"netfault":      {"bits", "benchmark", "tiles", "buffer"},
		"netdegrade":    {"bits", "benchmark", "tiles", "buffer", "faults"},
	}
	listed := map[string]ExperimentInfo{}
	for _, info := range ExperimentInfos() {
		listed[info.ID] = info
	}
	for id, params := range wantParams {
		info, ok := listed[id]
		if !ok {
			t.Fatalf("%s missing from the experiment index", id)
		}
		if len(info.Aliases) == 0 {
			t.Errorf("%s has no aliases", id)
		}
		if strings.Join(info.Params, ",") != strings.Join(params, ",") {
			t.Errorf("%s params = %v, want %v", id, info.Params, params)
		}
	}
	for alias, want := range map[string]string{
		"network-sweep":      "netsweep",
		"network-contention": "netcontention",
		"network-fault":      "netfault",
		"network-degrade":    "netdegrade",
		"NETSWEEP":           "netsweep",
	} {
		got, ok := CanonicalExperimentID(alias)
		if !ok || got != want {
			t.Errorf("alias %q resolved to %q, %v; want %q", alias, got, ok, want)
		}
	}

	e := NewExperiments()
	e.Bits = 4
	p := DefaultRunParams()
	p.Tiles = 2
	for _, id := range []string{"netsweep", "netcontention"} {
		sec, err := RunExperiment(e, id, p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if sec.ID != id || sectionText(t, sec) == "" {
			t.Errorf("%s: empty or mislabelled section", id)
		}
	}
	// The fault scenarios need a mesh that survives a dead bisection link, so
	// they run at four tiles (a 2x2 with a redundant path around any one link).
	p.Tiles = 4
	for _, id := range []string{"netfault", "netdegrade"} {
		sec, err := RunExperiment(e, id, p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if sec.ID != id || sectionText(t, sec) == "" {
			t.Errorf("%s: empty or mislabelled section", id)
		}
	}
	bad := p
	bad.Tiles = 0
	if err := validate(bad); err == nil {
		t.Error("zero tiles should fail validation")
	}
	bad = p
	bad.Faults = -1
	if err := validate(bad); err == nil {
		t.Error("negative faults should fail validation")
	}
}

// Same circuit and parameters must give identical network sections whether
// the engine runs one worker or eight — the partitioner, routes and replays
// are deterministic, so the rendered bytes are too.
func TestNetworkScenariosDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		e := NewExperiments()
		e.Bits = 4
		e.Engine = engine.New(workers)
		p := DefaultRunParams()
		p.Tiles = 4
		doc, err := RunReport(context.Background(), e, p, []string{"netsweep", "netcontention"})
		if err != nil {
			t.Fatal(err)
		}
		return docText(t, doc)
	}
	if seq, par := render(1), render(8); seq != par {
		t.Errorf("network sections differ between 1 and 8 workers:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}
