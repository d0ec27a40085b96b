package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Format selects a document encoding.
type Format string

const (
	// FormatText is the aligned plain-text rendering, byte-identical to the
	// historical qsd output.
	FormatText Format = "text"
	// FormatJSON is a structured JSON document with full-precision values.
	FormatJSON Format = "json"
	// FormatCSV is a flat CSV stream with full-precision values.
	FormatCSV Format = "csv"
)

// ParseFormat parses a -format flag or ?format= query value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatText, FormatJSON, FormatCSV:
		return Format(s), nil
	case "":
		return FormatText, nil
	}
	return "", fmt.Errorf("report: unknown format %q (want text, json or csv)", s)
}

// ContentType returns the HTTP content type of the format.
func (f Format) ContentType() string {
	switch f {
	case FormatJSON:
		return "application/json; charset=utf-8"
	case FormatCSV:
		return "text/csv; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

// Append appends the document to b in the given format.  On an error, such
// as a NaN or infinite series value in JSON, it returns b unextended.
func (d Document) Append(b []byte, f Format) ([]byte, error) {
	// A single-experiment document is a few kilobytes in any format: grow
	// once for that instead of many times from nothing.
	b = slices.Grow(b, 4<<10)
	switch f {
	case FormatJSON:
		return d.appendJSON(b)
	case FormatCSV:
		return d.appendCSV(b), nil
	case FormatText, "":
		return d.appendText(b), nil
	}
	return b, fmt.Errorf("report: unknown format %q", f)
}

// Encode writes the document to w in the given format, in one Write.  A
// document that cannot be encoded writes nothing.
func (d Document) Encode(w io.Writer, f Format) error {
	b, err := d.Append(nil, f)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// jsonWriter appends JSON laid out as encoding/json's Encoder lays it out
// with SetIndent("", "  "): every element and key on its own line, indented
// two spaces per level, and an empty array or object as [] or {}.
type jsonWriter struct {
	b     []byte
	depth int
	first bool // nothing written yet inside the innermost open container
}

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.b = append(w.b, c)
	w.first = false
}

// next starts an element of the innermost container.
func (w *jsonWriter) next() {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

// key starts an object member; k needs no escaping.
func (w *jsonWriter) key(k string) {
	w.next()
	w.b = append(append(append(w.b, '"'), k...), `": `...)
}

// jsonIndent is a newline and the indentation of depth 8, the deepest line
// of the document layout (a table cell).
const jsonIndent = "\n                "

func (w *jsonWriter) newline() {
	w.b = append(w.b, jsonIndent[:1+2*w.depth]...)
}

// appendJSON appends the document as the historical JSON layout:
//
//	{"sections": [{"id", "blocks": [{"type", "table" | "series" | "text"}]}]}
//
// with a table as {"title", "headers", "rows"} and a series as {"title",
// "xlabel", "ylabel", "points": [{"x", "y"}]}; empty titles, labels,
// headers and texts are left out, and the document ends in a newline.
func (d Document) appendJSON(b []byte) ([]byte, error) {
	w := jsonWriter{b: b}
	w.open('{')
	w.key("sections")
	w.open('[')
	for _, s := range d.Sections {
		w.next()
		w.open('{')
		w.key("id")
		w.b = appendJSONString(w.b, s.ID)
		w.key("blocks")
		w.open('[')
		for _, blk := range s.Blocks {
			w.next()
			if err := w.block(s.ID, blk); err != nil {
				return b, err
			}
		}
		w.close(']')
		w.close('}')
	}
	w.close(']')
	w.close('}')
	return append(w.b, '\n'), nil
}

// block appends one block of section id as a tagged object.  A block of
// another kind (a pointer to a Table, say) is carried as its text.
func (w *jsonWriter) block(id string, blk Block) error {
	w.open('{')
	w.key("type")
	switch b := blk.(type) {
	case Table:
		w.b = append(w.b, `"table"`...)
		w.key("table")
		w.open('{')
		w.optString("title", b.Title)
		if len(b.Headers) > 0 {
			w.key("headers")
			w.open('[')
			for _, h := range b.Headers {
				w.next()
				w.b = appendJSONString(w.b, h)
			}
			w.close(']')
		}
		w.key("rows")
		w.open('[')
		for _, row := range b.Rows {
			w.next()
			w.open('[')
			for _, c := range row {
				w.next()
				w.cell(c)
			}
			w.close(']')
		}
		w.close(']')
		w.close('}')
	case Series:
		w.b = append(w.b, `"series"`...)
		w.key("series")
		w.open('{')
		w.optString("title", b.Title)
		w.optString("xlabel", b.XLabel)
		w.optString("ylabel", b.YLabel)
		w.key("points")
		w.open('[')
		for _, p := range b.Points {
			if !finite(p.X) || !finite(p.Y) {
				return fmt.Errorf("report: section %q: series point (%v, %v) has no JSON encoding", id, p.X, p.Y)
			}
			w.next()
			w.open('{')
			w.key("x")
			w.b = appendJSONFloat(w.b, p.X)
			w.key("y")
			w.b = appendJSONFloat(w.b, p.Y)
			w.close('}')
		}
		w.close(']')
		w.close('}')
	case Text:
		w.b = append(w.b, `"text"`...)
		w.optString("text", string(b))
	default:
		w.b = append(w.b, `"text"`...)
		w.optString("text", string(blk.appendText(nil)))
	}
	w.close('}')
	return nil
}

// optString appends the member k: s unless s is empty.
func (w *jsonWriter) optString(k, s string) {
	if s != "" {
		w.key(k)
		w.b = appendJSONString(w.b, s)
	}
}

// cell appends a table cell: nil as null, a finite float at full precision,
// NaN and infinities as their strings ("NaN", "+Inf"), and any other value
// as json.Marshal encodes it, or as its %v string when json.Marshal cannot,
// so one odd cell never fails a whole document.
func (w *jsonWriter) cell(c Cell) {
	switch v := c.v.(type) {
	case nil:
		w.b = append(w.b, "null"...)
	case float64:
		if finite(v) {
			w.b = appendJSONFloat(w.b, v)
		} else {
			w.b = append(strconv.AppendFloat(append(w.b, '"'), v, 'g', -1, 64), '"')
		}
	case int:
		w.b = strconv.AppendInt(w.b, int64(v), 10)
	case string:
		w.b = appendJSONString(w.b, v)
	case bool:
		w.b = strconv.AppendBool(w.b, v)
	default:
		m, err := json.Marshal(v)
		if err != nil {
			w.b = appendJSONString(w.b, fmt.Sprintf("%v", v))
			return
		}
		// Indent the value as the enclosing document is indented.
		buf := bytes.NewBuffer(w.b)
		_ = json.Indent(buf, m, strings.Repeat("  ", w.depth), "  ") // m is valid JSON
		w.b = buf.Bytes()
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// appendJSONFloat appends a finite float as encoding/json does: the
// shortest form that round-trips, in 'f' notation, or in 'e' notation below
// 1e-6 and from 1e21 on, with a one-digit negative exponent unpadded.
func appendJSONFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	if abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(b, v, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, v, 'e', -1, 64)
	if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 becomes e-7
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, escaped as encoding/json
// escapes it: quote, backslash and control bytes, the HTML-sensitive <, >
// and &, and U+2028 and U+2029, with each byte of invalid UTF-8 written as
// \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendCSV flattens the document into one CSV stream.  Every record is
// prefixed with the section id and the kind of the record: "header" records
// carry table headers (or series axis labels), "row" records carry
// full-precision cell values, "text" records carry free-form notes.  Blocks
// of any other kind are left out.
func (d Document) appendCSV(b []byte) []byte {
	for _, s := range d.Sections {
		for _, blk := range s.Blocks {
			switch blk := blk.(type) {
			case Table:
				if len(blk.Headers) > 0 {
					b = appendCSVRecordStart(b, s.ID, "header")
					for _, h := range blk.Headers {
						b = appendCSVField(append(b, ','), h)
					}
					b = append(b, '\n')
				}
				for _, row := range blk.Rows {
					b = appendCSVRecordStart(b, s.ID, "row")
					for _, c := range row {
						b = c.appendCSV(append(b, ','))
					}
					b = append(b, '\n')
				}
			case Series:
				x, y := blk.XLabel, blk.YLabel
				if x == "" {
					x = "x"
				}
				if y == "" {
					y = "y"
				}
				b = appendCSVRecordStart(b, s.ID, "header")
				b = appendCSVField(append(b, ','), x)
				b = appendCSVField(append(b, ','), y)
				b = append(b, '\n')
				for _, p := range blk.Points {
					b = appendCSVRecordStart(b, s.ID, "row")
					b = strconv.AppendFloat(append(b, ','), p.X, 'g', -1, 64)
					b = strconv.AppendFloat(append(b, ','), p.Y, 'g', -1, 64)
					b = append(b, '\n')
				}
			case Text:
				b = appendCSVRecordStart(b, s.ID, "text")
				b = appendCSVField(append(b, ','), string(blk))
				b = append(b, '\n')
			}
		}
	}
	return b
}

// appendCSVRecordStart appends a record's section id and kind fields.
func appendCSVRecordStart(b []byte, id, kind string) []byte {
	return append(append(appendCSVField(b, id), ','), kind...)
}

// appendCSV appends the cell as one CSV field: a float at full round-trip
// precision, and a string or another value's %v text quoted as a field.
func (c Cell) appendCSV(b []byte) []byte {
	switch v := c.v.(type) {
	case float64:
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	case nil, int, bool:
		return c.appendText(b) // never quoted
	case string:
		return appendCSVField(b, v)
	default:
		return appendCSVField(b, fmt.Sprintf("%v", v))
	}
}

// appendCSVField appends f as encoding/csv's Writer writes a field: quoted,
// with each quote doubled, when it holds a comma, quote, CR or LF, starts
// with a Unicode space, or is the end-of-data marker `\.`.
func appendCSVField(b []byte, f string) []byte {
	r, _ := utf8.DecodeRuneInString(f)
	if f != `\.` && !strings.ContainsAny(f, ",\"\r\n") && !unicode.IsSpace(r) {
		return append(b, f...)
	}
	b = append(b, '"')
	for {
		i := strings.IndexByte(f, '"')
		if i < 0 {
			break
		}
		b = append(append(b, f[:i+1]...), '"')
		f = f[i+1:]
	}
	return append(append(b, f...), '"')
}
