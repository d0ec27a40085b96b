package main

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/server"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden from this build")

// goldenDir holds the committed outputs every change must reproduce byte for
// byte unless it sets out to change them.
const goldenDir = "../../testdata/golden"

// goldenParams are the settings of every golden run: small enough for the
// test suite, with each sweep parameter moved off its default.
var goldenParams = [][2]string{
	{"bits", "8"}, {"trials", "2000"}, {"max-scale", "8"},
	{"buffer", "8"}, {"tiles", "8"}, {"faults", "3"}, {"arch", "gcqla"},
}

// goldenCase is one golden output: an experiment id plus the settings it
// takes beyond goldenParams.
type goldenCase struct {
	name, id string
	extra    [][2]string
}

func goldenCases() []goldenCase {
	cases := []goldenCase{
		{name: "all", id: "all"},
		{name: "fig4-sparse", id: "fig4", extra: [][2]string{{"sparse", "true"}}},
		{name: "fig4-bitsliced", id: "fig4", extra: [][2]string{{"bitsliced", "true"}}},
		{name: "fig4-ci", id: "fig4", extra: [][2]string{{"ci", "0.5"}, {"conf", "0.9"}}},
	}
	for _, id := range core.ExperimentIDs() {
		cases = append(cases, goldenCase{name: id, id: id})
	}
	return cases
}

// TestGolden renders every experiment through both surfaces and compares the
// bytes with testdata/golden: the CLI's text, and the HTTP API's text and
// JSON (spelling max-scale as its query alias, scale), plus the
// /v1/experiments index.  Run it with -update to rewrite the files.
func TestGolden(t *testing.T) {
	exp := core.NewExperiments()
	exp.Engine = engine.New(0)
	ts := httptest.NewServer(server.New(exp, core.DefaultRunParams()))
	defer ts.Close()

	checkGolden(t, "index.json", httpBody(t, ts.URL+"/v1/experiments"))
	for _, c := range goldenCases() {
		args := []string{c.id, "-progress=false"}
		q := url.Values{}
		for _, kv := range append(append([][2]string{}, goldenParams...), c.extra...) {
			args = append(args, "-"+kv[0]+"="+kv[1])
			if kv[0] == "max-scale" {
				kv[0] = "scale"
			}
			q.Set(kv[0], kv[1])
		}
		checkGolden(t, c.name+".txt", cliOutput(t, args))
		for format, ext := range map[string]string{"text": ".txt", "json": ".json"} {
			q.Set("format", format)
			checkGolden(t, c.name+ext, httpBody(t, ts.URL+"/v1/experiments/"+c.id+"?"+q.Encode()))
		}
	}
}

// checkGolden compares got with the named golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test ./cmd/qsd -run TestGolden -update creates it)", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s differs from its golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// cliOutput runs qsd with args and returns what it printed on stdout.
func cliOutput(t *testing.T, args []string) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "qsd-*.out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := run(args, f); err != nil {
		t.Fatalf("qsd %v: %v", args, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// httpBody fetches url and fails the test on any status but 200.
func httpBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}
