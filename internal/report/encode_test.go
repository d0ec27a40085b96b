package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

// tricky holds float values whose compact text rendering loses precision;
// machine encoders must preserve them exactly.
var tricky = []float64{
	10.076261560928119,
	2.9e-05,
	1.0 / 3.0,
	147384.00000000003,
	0,
}

func trickyDoc() Document {
	tb := Table{Title: "T", Headers: []string{"name", "value"}}
	for _, v := range tricky {
		tb.AddRow("v", v)
	}
	s := Series{Title: "S", XLabel: "x", YLabel: "y"}
	s.Add(1.0/3.0, 10.076261560928119)
	var d Document
	d.AddSection(Section{ID: "exp", Blocks: []Block{tb, Text("note\n"), s}})
	return d
}

// TestJSONRoundTripsFullPrecision is the regression test for the historical
// precision loss: the compact text format renders 10.076261560928119 as
// "10.1", and that string was all any consumer could get.  The JSON encoder
// must emit the typed cell value so it round-trips to the exact same
// float64.
func TestJSONRoundTripsFullPrecision(t *testing.T) {
	var buf bytes.Buffer
	if err := trickyDoc().Encode(&buf, FormatJSON); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Sections []struct {
			ID     string `json:"id"`
			Blocks []struct {
				Type  string `json:"type"`
				Table *struct {
					Rows [][]any `json:"rows"`
				} `json:"table"`
				Series *struct {
					Points []struct{ X, Y float64 } `json:"points"`
				} `json:"series"`
				Text string `json:"text"`
			} `json:"blocks"`
		} `json:"sections"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded.Sections) != 1 || decoded.Sections[0].ID != "exp" {
		t.Fatalf("unexpected sections: %s", buf.String())
	}
	blocks := decoded.Sections[0].Blocks
	if len(blocks) != 3 || blocks[0].Type != "table" || blocks[1].Type != "text" || blocks[2].Type != "series" {
		t.Fatalf("unexpected block layout: %s", buf.String())
	}
	for i, v := range tricky {
		got, ok := blocks[0].Table.Rows[i][1].(float64)
		if !ok || got != v {
			t.Errorf("row %d: JSON value %v (%T) does not round-trip %v exactly", i, blocks[0].Table.Rows[i][1], blocks[0].Table.Rows[i][1], v)
		}
	}
	p := blocks[2].Series.Points[0]
	if p.X != 1.0/3.0 || p.Y != 10.076261560928119 {
		t.Errorf("series point lost precision: %+v", p)
	}
	if blocks[1].Text != "note\n" {
		t.Errorf("text block = %q", blocks[1].Text)
	}
}

// TestTextStaysCompact pins the text encoder to the seed renderer's exact
// bytes: compact floats, aligned columns, banner-separated sections — full
// precision is reserved for the machine formats.
func TestTextStaysCompact(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"name", "value"}}
	tb.AddRow("a", 10.076261560928119)
	tb.AddRow("b", 2.9e-05)
	var d Document
	d.AddSection(Section{ID: "one", Blocks: []Block{tb}})
	d.AddSection(Section{ID: "two", Blocks: []Block{Text("tail\n")}})
	want := "" +
		"=== one ===\n" +
		"T\n" +
		"name  value     \n" +
		"----------------\n" +
		"a     10.1      \n" +
		"b     2.90e-05  \n" +
		"\n" +
		"=== two ===\n" +
		"tail\n"
	var buf bytes.Buffer
	if err := d.Encode(&buf, FormatText); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("text encoding drifted from the seed renderer:\ngot:\n%q\nwant:\n%q", buf.String(), want)
	}
	if buf.String() != oracleDocumentText(d) {
		t.Error("Encode(text) and the oracle disagree")
	}
}

func TestCSVFullPrecision(t *testing.T) {
	var buf bytes.Buffer
	if err := trickyDoc().Encode(&buf, FormatCSV); err != nil {
		t.Fatal(err)
	}
	cr := csv.NewReader(&buf)
	cr.FieldsPerRecord = -1 // record width varies with block kind
	recs, err := cr.ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	// table header + 5 rows + text + series header + 1 point
	if len(recs) != 9 {
		t.Fatalf("expected 9 records, got %d: %v", len(recs), recs)
	}
	if recs[0][0] != "exp" || recs[0][1] != "header" {
		t.Errorf("bad header record: %v", recs[0])
	}
	if got := recs[1][3]; got != "10.076261560928119" {
		t.Errorf("CSV float lost precision: %q", got)
	}
	if recs[6][1] != "text" || recs[6][2] != "note\n" {
		t.Errorf("bad text record: %v", recs[6])
	}
	if recs[8][2] != "0.3333333333333333" {
		t.Errorf("series X lost precision: %v", recs[8])
	}
}

func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{"": FormatText, "text": FormatText, "json": FormatJSON, "csv": FormatCSV} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat should reject xml")
	}
	if _, err := ParseFormat("xml"); err != nil && !strings.Contains(err.Error(), "xml") {
		t.Errorf("error should name the bad format: %v", err)
	}
}

func TestSectionText(t *testing.T) {
	sec := NewSection(Text("a\n"), Text("b\n"))
	if got := textOf(Document{Sections: []Section{sec}}); got != "a\nb\n" {
		t.Errorf("section text = %q", got)
	}
}

// TestEncodeAllocations guards the encoders' cost per document: a 40-row,
// 6-column table of string, int and float64 cells encodes in each format
// with a few allocations, all of them buffer growth and none per cell.
// The reflection- and fmt-based encoders the append encoders replaced (the
// oracles in oracle_test.go) took 458 in JSON, 533 in text and 276 in CSV
// on this document.
func TestEncodeAllocations(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"name", "count", "latency (us)", "rate", "area", "note"}}
	for i := range 40 {
		tb.AddRow(fmt.Sprintf("row %d", i), i*37, float64(i)*1234.5678, 1/float64(i+3), i*i, "ok")
	}
	d := Document{Sections: []Section{{ID: "alloc", Blocks: []Block{tb}}}}
	for _, f := range []Format{FormatJSON, FormatText, FormatCSV} {
		allocs := testing.AllocsPerRun(20, func() {
			if err := d.Encode(io.Discard, f); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("%s: %v allocations per Encode, want at most 8", f, allocs)
		}
	}
}
