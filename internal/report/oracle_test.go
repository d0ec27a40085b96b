package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file holds the encoders the append encoders replaced: JSON through
// encoding/json reflection over mirror types, text through fmt, CSV through
// encoding/csv.  They are the oracles the parity tests hold the runtime
// encoders to under bytes.Equal.

// oracleEncode writes the document to w in the given format.
func oracleEncode(d Document, w io.Writer, f Format) error {
	switch f {
	case FormatJSON:
		return oracleJSON(d, w)
	case FormatCSV:
		return oracleCSV(d, w)
	case FormatText, "":
		_, err := io.WriteString(w, oracleDocumentText(d))
		return err
	}
	return fmt.Errorf("report: unknown format %q", f)
}

// oracleCellText renders the cell for the plain-text encoder: floats
// compactly via oracleFormatFloat, strings verbatim, everything else with %v.
func oracleCellText(c Cell) string {
	switch v := c.v.(type) {
	case nil:
		return ""
	case float64:
		return oracleFormatFloat(v)
	case string:
		return v
	default:
		return fmt.Sprintf("%v", v)
	}
}

// oracleCellMachine renders the cell for CSV: floats at full round-trip
// precision, strings verbatim, everything else with %v.
func oracleCellMachine(c Cell) string {
	switch v := c.v.(type) {
	case nil:
		return ""
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	case string:
		return v
	default:
		return fmt.Sprintf("%v", v)
	}
}

// oracleFormatFloat renders a float compactly: integers without decimals,
// small values in scientific notation, everything else with one decimal.
func oracleFormatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v-math.Round(v)) < 1e-9 && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// oracleTableText renders the table as plain text with aligned columns.
func oracleTableText(t Table) string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	text := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		text[i] = make([]string, len(r))
		for j, c := range r {
			text[i][j] = oracleCellText(c)
		}
	}
	if len(t.Headers) > 0 {
		measure(t.Headers)
	}
	for _, r := range text {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteString("\n")
	}
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total))
		b.WriteString("\n")
	}
	for _, r := range text {
		writeRow(r)
	}
	return b.String()
}

// oracleSeriesText renders the series with one bar per point, scaled to the
// maximum Y.  It panics on a bar of negative length: a negative, NaN or
// +Inf Y under a positive maximum.
func oracleSeriesText(s Series) string {
	width := s.Width
	if width <= 0 {
		width = 50
	}
	maxY := 0.0
	for _, p := range s.Points {
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	var b strings.Builder
	if s.Title != "" {
		fmt.Fprintf(&b, "%s\n", s.Title)
	}
	if s.XLabel != "" || s.YLabel != "" {
		fmt.Fprintf(&b, "x: %s, y: %s\n", s.XLabel, s.YLabel)
	}
	for _, p := range s.Points {
		bar := 0
		if maxY > 0 {
			bar = int(math.Round(p.Y / maxY * float64(width)))
		}
		fmt.Fprintf(&b, "%12s | %-*s %s\n", oracleFormatFloat(p.X), width, strings.Repeat("#", bar), oracleFormatFloat(p.Y))
	}
	return b.String()
}

// oracleBlockText renders any block for the plain-text encoder.
func oracleBlockText(blk Block) string {
	switch b := blk.(type) {
	case Table:
		return oracleTableText(b)
	case *Table:
		return oracleTableText(*b)
	case Series:
		return oracleSeriesText(b)
	case *Series:
		return oracleSeriesText(*b)
	case Text:
		return string(b)
	case *Text:
		return string(*b)
	}
	panic(fmt.Sprintf("report: unknown block %T", blk))
}

// oracleSectionText renders the section's blocks as concatenated plain text.
func oracleSectionText(s Section) string {
	var b strings.Builder
	for _, blk := range s.Blocks {
		b.WriteString(oracleBlockText(blk))
	}
	return b.String()
}

// oracleDocumentText renders the document as plain text.  A single section
// prints bare; multiple sections are separated by "=== id ===" banners.
func oracleDocumentText(d Document) string {
	if len(d.Sections) == 1 {
		return oracleSectionText(d.Sections[0])
	}
	var b strings.Builder
	for i, s := range d.Sections {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "=== %s ===\n%s", s.ID, oracleSectionText(s))
	}
	return b.String()
}

// oracleJSONDocument mirrors Document for encoding.
type oracleJSONDocument struct {
	Sections []oracleJSONSection `json:"sections"`
}

type oracleJSONSection struct {
	ID     string            `json:"id"`
	Blocks []oracleJSONBlock `json:"blocks"`
}

// oracleJSONBlock is the tagged union of block kinds.  Exactly one of Table,
// Series and Text is set, according to Type.
type oracleJSONBlock struct {
	Type   string            `json:"type"`
	Table  *oracleJSONTable  `json:"table,omitempty"`
	Series *oracleJSONSeries `json:"series,omitempty"`
	Text   string            `json:"text,omitempty"`
}

type oracleJSONTable struct {
	Title   string   `json:"title,omitempty"`
	Headers []string `json:"headers,omitempty"`
	Rows    [][]any  `json:"rows"`
}

type oracleJSONSeries struct {
	Title  string        `json:"title,omitempty"`
	XLabel string        `json:"xlabel,omitempty"`
	YLabel string        `json:"ylabel,omitempty"`
	Points []oraclePoint `json:"points"`
}

// oraclePoint is a SeriesPoint with the JSON form {"x": ..., "y": ...}.
type oraclePoint SeriesPoint

// MarshalJSON emits the point as {"x": ..., "y": ...}.
func (p oraclePoint) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
	}{p.X, p.Y})
}

// oracleJSONValue returns the cell's value for JSON encoding.  Values the
// encoder cannot represent (channels, functions, NaN/Inf floats) fall back
// to their %v string so one odd cell never fails a whole document.
func oracleJSONValue(c Cell) any {
	if f, ok := c.v.(float64); ok {
		// JSON has no NaN/Inf literals.
		if _, err := json.Marshal(f); err != nil {
			return oracleCellMachine(c)
		}
		return f
	}
	if c.v == nil {
		return nil
	}
	if _, err := json.Marshal(c.v); err != nil {
		return fmt.Sprintf("%v", c.v)
	}
	return c.v
}

func oracleJSON(d Document, w io.Writer) error {
	doc := oracleJSONDocument{Sections: make([]oracleJSONSection, len(d.Sections))}
	for i, s := range d.Sections {
		js := oracleJSONSection{ID: s.ID, Blocks: make([]oracleJSONBlock, 0, len(s.Blocks))}
		for _, blk := range s.Blocks {
			switch b := blk.(type) {
			case Table:
				jt := &oracleJSONTable{Title: b.Title, Headers: b.Headers, Rows: make([][]any, len(b.Rows))}
				for r, row := range b.Rows {
					cells := make([]any, len(row))
					for c, cell := range row {
						cells[c] = oracleJSONValue(cell)
					}
					jt.Rows[r] = cells
				}
				js.Blocks = append(js.Blocks, oracleJSONBlock{Type: "table", Table: jt})
			case Series:
				points := make([]oraclePoint, len(b.Points))
				for i, p := range b.Points {
					points[i] = oraclePoint(p)
				}
				js.Blocks = append(js.Blocks, oracleJSONBlock{Type: "series", Series: &oracleJSONSeries{
					Title: b.Title, XLabel: b.XLabel, YLabel: b.YLabel, Points: points,
				}})
			case Text:
				js.Blocks = append(js.Blocks, oracleJSONBlock{Type: "text", Text: string(b)})
			default:
				js.Blocks = append(js.Blocks, oracleJSONBlock{Type: "text", Text: oracleBlockText(blk)})
			}
		}
		doc.Sections[i] = js
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// oracleCSV flattens the document into one CSV stream.
func oracleCSV(d Document, w io.Writer) error {
	cw := csv.NewWriter(w)
	for _, s := range d.Sections {
		for _, blk := range s.Blocks {
			switch b := blk.(type) {
			case Table:
				if len(b.Headers) > 0 {
					if err := cw.Write(append([]string{s.ID, "header"}, b.Headers...)); err != nil {
						return err
					}
				}
				for _, row := range b.Rows {
					rec := make([]string, 2, 2+len(row))
					rec[0], rec[1] = s.ID, "row"
					for _, cell := range row {
						rec = append(rec, oracleCellMachine(cell))
					}
					if err := cw.Write(rec); err != nil {
						return err
					}
				}
			case Series:
				x, y := b.XLabel, b.YLabel
				if x == "" {
					x = "x"
				}
				if y == "" {
					y = "y"
				}
				if err := cw.Write([]string{s.ID, "header", x, y}); err != nil {
					return err
				}
				for _, p := range b.Points {
					if err := cw.Write([]string{s.ID, "row",
						strconv.FormatFloat(p.X, 'g', -1, 64),
						strconv.FormatFloat(p.Y, 'g', -1, 64)}); err != nil {
						return err
					}
				}
			case Text:
				if err := cw.Write([]string{s.ID, "text", string(b)}); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
