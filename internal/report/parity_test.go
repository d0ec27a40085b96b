package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// textOf renders a block, or a whole document, with the text encoder.
func textOf(b Block) string { return string(b.appendText(nil)) }

// writeCounter records what an encoder writes and in how many calls.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// oddFragments are the pieces random strings are built from: HTML-sensitive
// and quoting characters, control bytes, invalid UTF-8, U+2028 and U+2029,
// multi-byte text, CSV's separators and leading spaces, and its `\.`.
var oddFragments = []string{
	"a", "plain text", "<", ">", "&", `"`, `\`, "\x00", "\x01", "\x1f", "\b",
	"\f", "\n", "\r", "\t", "\x7f", "\xff", "\xc3", "\xe2\x80", "é", "日本",
	"\u2028", "\u2029", "🙂", " ", ",", `\.`, "\u00a0", "\u3000", "\u0085", "x",
}

func randString(r *rand.Rand) string {
	switch r.Intn(8) {
	case 0:
		return ""
	case 1:
		return oddFragments[r.Intn(len(oddFragments))]
	case 2:
		b := make([]byte, r.Intn(8))
		r.Read(b)
		return string(b)
	}
	var b strings.Builder
	for n := 1 + r.Intn(5); n > 0; n-- {
		b.WriteString(oddFragments[r.Intn(len(oddFragments))])
	}
	return b.String()
}

// specialFloats sit on the boundaries of the float formats: signed zeros,
// NaN and the infinities, JSON's 1e-6 and 1e21 cutoffs, the smallest
// subnormal, and the compact format's 0.01, 1e9 and near-integer cases.
var specialFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1e-7, -1e-7, 1e-6, 9.99999e-7, 1e21, -1e21, 9.999999999999999e20, 5e-324,
	-5e-324, math.MaxFloat64, 0.01, 0.009999999, 0.005, 0.05, 1e9, 1e9 - 0.5,
	999999999.99999999, 2.5, -2.5, 0.25, 1.0 / 3.0, 29508, 1e-9, 147384.00000000003,
	10.076261560928119, 2.9e-05, 1e100, 123456789012345678,
}

func randFloat(r *rand.Rand) float64 {
	switch r.Intn(4) {
	case 0:
		return specialFloats[r.Intn(len(specialFloats))]
	case 1:
		return math.Float64frombits(r.Uint64())
	case 2:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(50)-25))
	default:
		return float64(r.Intn(2001)-1000) + float64(r.Intn(3)-1)*1e-10
	}
}

// randPointValue draws a series value that is NaN or infinite one time in
// 40, so that some documents have no JSON encoding.
func randPointValue(r *rand.Rand) float64 {
	if r.Intn(40) == 0 {
		return [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
	}
	for {
		if v := randFloat(r); finite(v) {
			return v
		}
	}
}

func randCell(r *rand.Rand) Cell {
	switch r.Intn(10) {
	case 0:
		return Cell{}
	case 1, 2, 3, 4:
		return CellOf(randFloat(r))
	case 5:
		return CellOf(r.Intn(2_000_001) - 1_000_000)
	case 6:
		return CellOf(int(r.Uint64()))
	case 7, 8:
		return CellOf(randString(r))
	}
	return CellOf(r.Intn(2) == 0)
}

func randStrings(r *rand.Rand) []string {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	s := make([]string, r.Intn(6))
	for i := range s {
		s[i] = randString(r)
	}
	return s
}

func randTable(r *rand.Rand) Table {
	t := Table{Headers: randStrings(r)}
	if r.Intn(2) == 0 {
		t.Title = randString(r)
	}
	switch r.Intn(4) {
	case 0:
	case 1:
		t.Rows = [][]Cell{}
	default:
		for n := r.Intn(7); n > 0; n-- {
			row := make([]Cell, r.Intn(7))
			for i := range row {
				row[i] = randCell(r)
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// randSeries draws a series whose Y values are, three times in four, not
// negative: the text oracle panics on most series with a negative Y.
func randSeries(r *rand.Rand) Series {
	var s Series
	if r.Intn(2) == 0 {
		s.Title = randString(r)
	}
	if r.Intn(2) == 0 {
		s.XLabel, s.YLabel = randString(r), randString(r)
	}
	nonNegative := r.Intn(4) != 0
	switch r.Intn(4) {
	case 0:
	case 1:
		s.Points = []SeriesPoint{}
	default:
		for n := r.Intn(7); n > 0; n-- {
			y := randPointValue(r)
			if nonNegative {
				y = math.Abs(y)
			}
			s.Add(randPointValue(r), y)
		}
	}
	return s
}

func randBlock(r *rand.Rand) Block {
	switch r.Intn(8) {
	case 0, 1:
		return randTable(r)
	case 2:
		t := randTable(r)
		return &t
	case 3, 4:
		return randSeries(r)
	case 5:
		s := randSeries(r)
		return &s
	case 6:
		return Text(randString(r))
	}
	t := Text(randString(r))
	return &t
}

func randDocument(r *rand.Rand) Document {
	var d Document
	switch r.Intn(10) {
	case 0:
		return d
	case 1:
		d.Sections = []Section{}
		return d
	}
	for n := 1 + r.Intn(4); n > 0; n-- {
		s := Section{ID: randString(r)}
		switch r.Intn(5) {
		case 0:
		case 1:
			s.Blocks = []Block{}
		default:
			for m := 1 + r.Intn(5); m > 0; m-- {
				s.Blocks = append(s.Blocks, randBlock(r))
			}
		}
		d.AddSection(s)
	}
	return d
}

// runOracle encodes d with the oracle, reporting a panic (the text oracle's
// on a series bar of negative length) instead of raising it.
func runOracle(d Document, f Format) (out []byte, panicked bool, err error) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	var buf bytes.Buffer
	err = oracleEncode(d, &buf, f)
	return buf.Bytes(), false, err
}

// firstDiff describes where two encodings part.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-40)
	return fmt.Sprintf("at byte %d:\n got  %q\n want %q", i, got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
}

// TestEncodersMatchOracles holds each append encoder to the encoder it
// replaced (oracle_test.go) on random documents: the same bytes under
// bytes.Equal, an error from one exactly when the other errs, nothing
// written on an error and one Write otherwise.  The documents cover nil and
// empty sections, blocks, headers, rows and points, pointer blocks, cells of
// every kind a Cell holds, and strings of HTML-sensitive, control, invalid
// and multi-byte text.
func TestEncodersMatchOracles(t *testing.T) {
	docs := 3000
	if testing.Short() {
		docs = 300
	}
	r := rand.New(rand.NewSource(1))
	jsonErrs, textSkips := 0, 0
	for i := 0; i < docs; i++ {
		d := randDocument(r)
		for _, f := range []Format{FormatJSON, FormatText, FormatCSV} {
			want, panicked, wantErr := runOracle(d, f)
			var got writeCounter
			err := d.Encode(&got, f)
			if panicked {
				textSkips++
				continue
			}
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("doc %d, %s: error %v, oracle's %v", i, f, err, wantErr)
			}
			if err != nil {
				jsonErrs++
				if got.writes != 0 {
					t.Fatalf("doc %d, %s: failed encoding wrote %d times", i, f, got.writes)
				}
				continue
			}
			if got.writes != 1 {
				t.Fatalf("doc %d, %s: %d writes, want 1", i, f, got.writes)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("doc %d, %s: differs from the oracle %s", i, f, firstDiff(got.Bytes(), want))
			}
		}
	}
	// Both skipped and failed documents must stay a minority, and failures
	// must occur, or the test checks too little.
	if jsonErrs == 0 || jsonErrs > docs/2 || textSkips > docs/2 {
		t.Errorf("%d documents failed JSON and %d were skipped in text, of %d", jsonErrs, textSkips, docs)
	}
}

// TestScalarsMatchOracles holds the scalar formatters to theirs over many
// more values than the documents hold: the compact text float to fmt's %.2e,
// %.0f and %.1f, the JSON float and string to json.Marshal, and the CSV
// field to csv.Writer.
func TestScalarsMatchOracles(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	r := rand.New(rand.NewSource(2))
	var b []byte
	for i := 0; i < n; i++ {
		v := randFloat(r)
		if b = appendCompact(b[:0], v); string(b) != oracleFormatFloat(v) {
			t.Fatalf("appendCompact(%v) = %q, oracle %q", v, b, oracleFormatFloat(v))
		}
		if want, err := json.Marshal(v); err == nil {
			if b = appendJSONFloat(b[:0], v); !bytes.Equal(b, want) {
				t.Fatalf("appendJSONFloat(%v) = %s, json.Marshal %s", v, b, want)
			}
		}
	}
	var buf bytes.Buffer
	for i := 0; i < n/10; i++ {
		s := randString(r)
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if b = appendJSONString(b[:0], s); !bytes.Equal(b, want) {
			t.Fatalf("appendJSONString(%q) = %s, json.Marshal %s", s, b, want)
		}
		buf.Reset()
		cw := csv.NewWriter(&buf)
		if err := cw.Write([]string{s}); err != nil {
			t.Fatal(err)
		}
		cw.Flush()
		if b = append(appendCSVField(b[:0], s), '\n'); !bytes.Equal(b, buf.Bytes()) {
			t.Fatalf("appendCSVField(%q) = %q, csv.Writer %q", s, b, buf.Bytes())
		}
	}
}
