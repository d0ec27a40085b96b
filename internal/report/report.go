// Package report models experiment results as structured documents — typed
// tables, (x, y) series and free-form notes grouped into sections — and
// renders them through pluggable encoders: aligned plain text (the historical
// qsd output format, byte-for-byte), JSON and CSV.
//
// Values stay typed all the way to the encoder.  A Cell holds nil, a
// string, a float64, an int or a bool; the text encoder applies the paper's
// compact float formatting while the machine-readable encoders emit
// full-precision values, so a JSON consumer can round-trip every number
// exactly even though the terminal rendering rounds for readability.
//
// Each encoder appends one document into one byte slice, formatting every
// cell with strconv or copying it, never through reflection or fmt.
package report

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Cell is one typed table value: nil, a string, a float64, an int or a
// bool, and nothing else, so every encoder's switch over it is total.  The
// zero Cell holds nil and renders empty.
type Cell struct {
	v any
}

// CellOf wraps a value in a Cell.  It panics on a value of any other type
// than nil, string, float64, int and bool, naming the type: a named type
// such as time.Duration is another type, so convert it first.
func CellOf(v any) Cell {
	switch v.(type) {
	case nil, string, float64, int, bool:
		return Cell{v: v}
	}
	panic(fmt.Sprintf("report: cell value of type %T, want string, float64, int or bool", v))
}

// appendText renders the cell for the plain-text encoder: floats compactly
// via appendCompact, strings verbatim, ints and bools as strconv prints
// them, and nil as nothing.
func (c Cell) appendText(b []byte) []byte {
	switch v := c.v.(type) {
	case float64:
		return appendCompact(b, v)
	case string:
		return append(b, v...)
	case int:
		return strconv.AppendInt(b, int64(v), 10)
	case bool:
		return strconv.AppendBool(b, v)
	}
	return b
}

// Table is a titled grid of typed cells.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]Cell
}

// AddRow appends a row of values, each stored as a Cell by CellOf, which
// panics on a type a Cell cannot hold.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]Cell, len(cells))
	for i, c := range cells {
		row[i] = CellOf(c)
	}
	t.Rows = append(t.Rows, row)
}

// appendCompact renders a float compactly: integers without decimals, small
// values in scientific notation, everything else with one decimal.  It is
// the text encoder's float format; machine-readable encoders bypass it and
// emit full precision.
func appendCompact(b []byte, v float64) []byte {
	switch {
	case v == 0:
		return append(b, '0')
	case math.Abs(v) < 0.01:
		return strconv.AppendFloat(b, v, 'e', 2, 64)
	case math.Abs(v-math.Round(v)) < 1e-9 && math.Abs(v) < 1e9:
		return strconv.AppendFloat(b, v, 'f', 0, 64)
	default:
		return strconv.AppendFloat(b, v, 'f', 1, 64)
	}
}

// appendRepeat appends n copies of c (none when n <= 0).
func appendRepeat(b []byte, c byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, c)
	}
	return b
}

// appendPadded appends s left-justified in width runes, as fmt's %-*s does.
// Column widths are measured in bytes, so a cell holding multi-byte runes
// gets more padding than its byte length needs; the historical renderer
// did the same and the text output keeps it.
func appendPadded(b, s []byte, width int) []byte {
	return appendRepeat(append(b, s...), ' ', width-utf8.RuneCount(s))
}

// appendText renders the table as plain text with aligned columns.  Each
// header and cell text is appended once, into b past the title; the padded
// rows are built after those texts, once the column widths are known, and
// then moved down over them.
func (t Table) appendText(b []byte) []byte {
	if t.Title != "" {
		b = append(append(b, t.Title...), '\n')
	}
	cols, texts := len(t.Headers), len(t.Headers)
	for _, r := range t.Rows {
		cols = max(cols, len(r))
		texts += len(r)
	}
	// widths[i] is column i's width in bytes; ends[k] is where the k-th
	// text, headers first, ends in b.
	offs := make([]int, cols+texts)
	widths, ends := offs[:cols], offs[cols:]
	start, k := len(b), 0
	for i, h := range t.Headers {
		b = append(b, h...)
		widths[i] = max(widths[i], len(h))
		ends[k] = len(b)
		k++
	}
	for _, r := range t.Rows {
		for i, c := range r {
			from := len(b)
			b = c.appendText(b)
			widths[i] = max(widths[i], len(b)-from)
			ends[k] = len(b)
			k++
		}
	}
	rendered, from := len(b), start
	k = 0
	row := func(n int) {
		for i, w := range widths {
			if i < n {
				b = appendPadded(b, b[from:ends[k]], w+2)
				from = ends[k]
				k++
			} else {
				b = appendRepeat(b, ' ', w+2)
			}
		}
		b = append(b, '\n')
	}
	if len(t.Headers) > 0 {
		row(len(t.Headers))
		for _, w := range widths {
			b = appendRepeat(b, '-', w+2)
		}
		b = append(b, '\n')
	}
	for _, r := range t.Rows {
		row(len(r))
	}
	n := copy(b[start:], b[rendered:])
	return b[:start+n]
}

// Series is a one-dimensional curve rendered as an ASCII bar chart, with
// bars up to seriesWidth characters, by the text encoder and as an (x, y)
// point list by the machine encoders, used for the figure reproductions.
type Series struct {
	Title  string
	XLabel string
	YLabel string
	Points []SeriesPoint
}

// seriesWidth is the length of a series' longest bar in characters.
const seriesWidth = 50

// SeriesPoint is one (x, y) sample.
type SeriesPoint struct {
	X, Y float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, SeriesPoint{X: x, Y: y})
}

// appendText renders the series with one bar per point, scaled to the
// maximum Y.  Each bar is clamped to [0, seriesWidth]: a negative or NaN Y
// draws an empty bar, as does every point of a series whose maximum is
// infinite.
func (s Series) appendText(b []byte) []byte {
	maxY := 0.0
	for _, p := range s.Points {
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	if s.Title != "" {
		b = append(append(b, s.Title...), '\n')
	}
	if s.XLabel != "" || s.YLabel != "" {
		b = append(append(b, "x: "...), s.XLabel...)
		b = append(append(b, ", y: "...), s.YLabel...)
		b = append(b, '\n')
	}
	var x [32]byte
	for _, p := range s.Points {
		n := 0
		if maxY > 0 {
			// NaN, from a NaN or infinite Y, fails both tests and draws nothing.
			if bar := math.Round(p.Y / maxY * seriesWidth); bar >= seriesWidth {
				n = seriesWidth
			} else if bar > 0 {
				n = int(bar)
			}
		}
		xs := appendCompact(x[:0], p.X)
		b = appendRepeat(b, ' ', 12-len(xs))
		b = append(append(b, xs...), " | "...)
		b = appendRepeat(b, '#', n)
		b = appendRepeat(b, ' ', seriesWidth-n+1)
		b = append(appendCompact(b, p.Y), '\n')
	}
	return b
}

// Text is a free-form preformatted block (summary lines, footnotes).  The
// text encoder emits it verbatim; machine encoders carry it as a note.
type Text string

// Block is one content element of a Section: a Table, a Series or a Text
// note.
type Block interface {
	// appendText renders the block for the plain-text encoder.
	appendText(b []byte) []byte
}

func (t Text) appendText(b []byte) []byte { return append(b, t...) }

// Section is one rendered experiment: a stable identifier (the experiment id
// the qsd tool and the HTTP API accept) plus its content blocks in
// presentation order.
type Section struct {
	ID     string
	Blocks []Block
}

// NewSection builds a section from blocks with an empty ID, which the
// registry that runs the experiment sets to the experiment id.
func NewSection(blocks ...Block) Section {
	return Section{Blocks: blocks}
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

// appendText renders the document as plain text.  A single section prints
// bare; multiple sections are separated by "=== id ===" banners.
func (d Document) appendText(b []byte) []byte {
	for i, s := range d.Sections {
		if len(d.Sections) > 1 {
			if i > 0 {
				b = append(b, '\n')
			}
			b = append(append(append(b, "=== "...), s.ID...), " ===\n"...)
		}
		for _, blk := range s.Blocks {
			b = blk.appendText(b)
		}
	}
	return b
}
