// Package report models experiment results as structured documents — typed
// tables, (x, y) series and free-form notes grouped into sections — and
// renders them through pluggable encoders: aligned plain text (the historical
// qsd output format, byte-for-byte), JSON and CSV.
//
// Values stay typed all the way to the encoder.  A Cell holds the original
// Go value; the text encoder applies the paper's compact float formatting
// (FormatFloat) while the machine-readable encoders emit full-precision
// values, so a JSON consumer can round-trip every number exactly even though
// the terminal rendering rounds for readability.
package report

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Cell is one typed table value.  The zero Cell holds nil and renders empty.
type Cell struct {
	v any
}

// CellOf wraps a value in a Cell.
func CellOf(v any) Cell { return Cell{v: v} }

// Text renders the cell for the plain-text encoder: floats compactly via
// FormatFloat, strings verbatim, everything else with %v.
func (c Cell) Text() string {
	switch v := c.v.(type) {
	case nil:
		return ""
	case float64:
		return FormatFloat(v)
	case string:
		return v
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Machine renders the cell for machine-readable encoders (CSV): floats at
// full round-trip precision, strings verbatim, everything else with %v.
func (c Cell) Machine() string {
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

// Table is a titled grid of typed cells.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]Cell
}

// AddRow appends a row of arbitrary values, each stored as a typed Cell.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]Cell, len(cells))
	for i, c := range cells {
		row[i] = CellOf(c)
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: integers without decimals, small
// values in scientific notation, everything else with one decimal.  It is
// the text encoder's float format; machine-readable encoders bypass it and
// emit full precision (see Cell.Machine and the JSON encoder).
func FormatFloat(v float64) string {
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

// String renders the table as plain text with aligned columns.
func (t Table) String() string {
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
			text[i][j] = c.Text()
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

// Series is a one-dimensional curve rendered as an ASCII bar chart by the
// text encoder and as an (x, y) point list by the machine encoders, used for
// the figure reproductions.
type Series struct {
	Title  string
	XLabel string
	YLabel string
	Points []SeriesPoint
	// Width is the bar width in characters (default 50).
	Width int
}

// SeriesPoint is one (x, y) sample.
type SeriesPoint struct {
	X, Y float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, SeriesPoint{X: x, Y: y})
}

// String renders the series with one bar per point, scaled to the maximum Y.
func (s Series) String() string {
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
		fmt.Fprintf(&b, "%12s | %-*s %s\n", FormatFloat(p.X), width, strings.Repeat("#", bar), FormatFloat(p.Y))
	}
	return b.String()
}

// Text is a free-form preformatted block (summary lines, footnotes).  The
// text encoder emits it verbatim; machine encoders carry it as a note.
type Text string

// Block is one content element of a Section: a Table, a Series or a Text
// note.
type Block interface {
	// blockText renders the block for the plain-text encoder.
	blockText() string
}

func (t Table) blockText() string  { return t.String() }
func (s Series) blockText() string { return s.String() }
func (t Text) blockText() string   { return string(t) }

// Section is one rendered experiment: a stable identifier (the experiment id
// the qsd tool and the HTTP API accept) plus its content blocks in
// presentation order.
type Section struct {
	ID     string
	Blocks []Block
}

// NewSection builds a section from blocks.
func NewSection(id string, blocks ...Block) Section {
	return Section{ID: id, Blocks: blocks}
}

// Text renders the section's blocks as concatenated plain text.
func (s Section) Text() string {
	var b strings.Builder
	for _, blk := range s.Blocks {
		b.WriteString(blk.blockText())
	}
	return b.String()
}

// Document collects experiment sections in presentation order.  The qsd tool
// and the HTTP server regenerate every table and figure by running
// experiments as engine jobs that each produce one Section, then encoding
// the collected results through this single code path.
type Document struct {
	Sections []Section
}

// AddSection appends a prebuilt section.
func (d *Document) AddSection(s Section) {
	d.Sections = append(d.Sections, s)
}

// String renders the document as plain text.  A single section prints bare;
// multiple sections are separated by "=== id ===" banners.
func (d Document) String() string {
	if len(d.Sections) == 1 {
		return d.Sections[0].Text()
	}
	var b strings.Builder
	for i, s := range d.Sections {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "=== %s ===\n%s", s.ID, s.Text())
	}
	return b.String()
}
