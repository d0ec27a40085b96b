package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"testing"

	"speedofdata/internal/core"
)

// TestMain lets a test run this binary as qsd itself: with QSD_ARGS set it
// calls main with those arguments instead of running the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("QSD_ARGS"); ok {
		os.Args = append([]string{"qsd"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectedInputsExit1 runs qsd on inputs it must refuse: each one exits
// with status 1 and a "qsd:" message, before printing any report.
func TestRejectedInputsExit1(t *testing.T) {
	for _, args := range []string{
		"fig4 -ci NaN",
		"fig4 -ci 0.1 -conf NaN",
		"table1 -bits 0",
		"fig4 -trials 0",
		"fig4 -ci 1",
		"fig4 -conf 0.9",
		"fig4 -sparse -bitsliced",
		"fig15 -benchmark QXYZ",
		"fig15 -arch warp",
		"netsweep -tiles 0",
		"netdegrade -faults -1",
		"fig15buf -buffer -1",
		"fig7 -buckets 0",
		"fig15 -max-scale 0",
		"fig4 -seed x",
		"nosuch",
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "QSD_ARGS="+args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("qsd %s: %v, want exit status 1", args, err)
		}
		if !strings.Contains(stderr.String(), "qsd: ") || stdout.Len() != 0 {
			t.Errorf("qsd %s: stdout %q, stderr %q; want only a qsd: message on stderr", args, stdout.String(), stderr.String())
		}
	}
}

// paramFlagSet returns a flag set carrying just the parameter flags, as run
// registers them.
func paramFlagSet() (*flag.FlagSet, *core.Experiments, *core.RunParams) {
	fs := flag.NewFlagSet("qsd", flag.ContinueOnError)
	e, p := core.NewExperiments(), core.DefaultRunParams()
	paramFlags(fs, &e, &p)
	return fs, &e, &p
}

// TestUsage checks that the usage text names every registered experiment and
// that each parameter flag's help names exactly the experiments whose
// Params contain it.
func TestUsage(t *testing.T) {
	fs, _, _ := paramFlagSet()
	var b strings.Builder
	usage(&b, fs)
	for _, id := range core.ExperimentIDs() {
		if !strings.Contains(b.String(), "\n  "+id+" ") {
			t.Errorf("usage does not list experiment %s:\n%s", id, b.String())
		}
	}
	for _, prm := range core.Params {
		var want []string
		for _, info := range core.ExperimentInfos() {
			if slices.Contains(info.Params, prm.Name) {
				want = append(want, info.ID)
			}
		}
		f := fs.Lookup(prm.Name)
		if f == nil {
			t.Errorf("no -%s flag", prm.Name)
			continue
		}
		_, list, ok := strings.Cut(f.Usage, "(used by ")
		if got := strings.Split(strings.TrimSuffix(list, ")"), ", "); !ok || !slices.Equal(got, want) {
			t.Errorf("-%s help %q names %v, want %v", prm.Name, f.Usage, got, want)
		}
	}
}

// TestREADMEParamTable keeps README.md's parameter table equal to the one
// the core table and the flag defaults generate.
func TestREADMEParamTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs, e, p := paramFlagSet()
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	var b strings.Builder
	b.WriteString("| parameter | default | range | HTTP cap | used by | meaning |\n")
	b.WriteString("|-----------|---------|-------|----------|---------|---------|\n")
	for _, prm := range core.Params {
		name := "`" + prm.Name + "`"
		if prm.Alias != "" {
			name += " (`" + prm.Alias + "`)"
		}
		def, rng, limit := "—", "—", "—"
		if v := fs.Lookup(prm.Name).DefValue; v != "" {
			def = "`" + v + "`"
		}
		switch prm.Field(e, p).(type) {
		case *int, *float64:
			rng = prm.Range()
		}
		if prm.Cap != 0 {
			limit = "≤ " + num(prm.Cap)
		}
		if prm.Floor != 0 {
			limit = "0 or ≥ " + num(prm.Floor)
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s |\n",
			name, def, rng, limit, strings.Join(prm.UsedBy(), ", "), prm.Help)
	}
	if !strings.Contains(string(readme), b.String()) {
		t.Errorf("README.md's parameter table is out of date; want:\n%s", b.String())
	}
}
