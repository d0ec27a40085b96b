package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := Table{
		Title:   "Table X",
		Headers: []string{"Circuit", "Latency (us)", "Share"},
	}
	tb.AddRow("32-Bit QRCA", 29508.0, "5.2%")
	tb.AddRow("32-Bit QCLA", 3827.0, "5.3%")
	out := textOf(tb)
	if !strings.Contains(out, "Table X") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "32-Bit QRCA") || !strings.Contains(out, "29508") {
		t.Errorf("missing row content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title, header, separator, two rows.
	if len(lines) != 5 {
		t.Errorf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	// Columns must align: both data rows start their second column at the
	// same offset.
	idx1 := strings.Index(lines[3], "29508")
	idx2 := strings.Index(lines[4], "3827")
	if idx1 != idx2 {
		t.Errorf("columns not aligned:\n%s", out)
	}
}

func TestTableWithoutHeaders(t *testing.T) {
	tb := Table{}
	tb.AddRow("a", 1)
	out := textOf(tb)
	if strings.Contains(out, "---") {
		t.Error("no separator expected without headers")
	}
	if !strings.Contains(out, "a") {
		t.Error("missing cell")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		3:       "3",
		3.14159: "3.1",
		0.00029: "2.90e-04",
		29508:   "29508",
	}
	for in, want := range cases {
		if got := string(appendCompact(nil, in)); got != want {
			t.Errorf("appendCompact(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestSeriesRendering(t *testing.T) {
	s := Series{Title: "Figure 8", XLabel: "ancillae/ms", YLabel: "ms", Width: 20}
	s.Add(10, 100)
	s.Add(20, 50)
	s.Add(40, 25)
	out := textOf(s)
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "ancillae/ms") {
		t.Error("missing labels")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	// The first point has the maximum Y and should have the longest bar.
	if strings.Count(lines[2], "#") <= strings.Count(lines[3], "#") {
		t.Errorf("bars not scaled to Y:\n%s", out)
	}
}

func TestSeriesEmptyAndZero(t *testing.T) {
	s := Series{}
	s.Add(1, 0)
	out := textOf(s)
	if !strings.Contains(out, "0") {
		t.Error("zero point should render")
	}
	if strings.Contains(out, "#") {
		t.Error("zero values should have empty bars")
	}
}

// TestSeriesClampsBars: under a positive maximum, a negative, NaN or
// infinite Y once gave a bar of negative length, and strings.Repeat
// panicked.  Each bar is clamped to [0, Width], NaN drawing nothing.
func TestSeriesClampsBars(t *testing.T) {
	s := Series{Width: 4, Points: []SeriesPoint{{0, 1}, {1, -1}, {2, math.NaN()}, {3, 0.5}}}
	want := "" +
		"           0 | #### 1\n" +
		"           1 |      -1\n" +
		"           2 |      NaN\n" +
		"           3 | ##   0.5\n"
	if got := textOf(s); got != want {
		t.Errorf("clamped bars:\ngot:\n%s\nwant:\n%s", got, want)
	}
	inf := Series{Width: 4, Points: []SeriesPoint{{0, 1}, {1, math.Inf(1)}}}
	if got := textOf(inf); strings.Contains(got, "#") {
		t.Errorf("an infinite maximum should draw no bars:\n%s", got)
	}
	var buf bytes.Buffer
	d := Document{Sections: []Section{NewSection("s", Series{Points: []SeriesPoint{{0, 1}, {1, -1}}})}}
	if err := d.Encode(&buf, FormatText); err != nil {
		t.Fatal(err)
	}
}
