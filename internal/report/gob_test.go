package report

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
)

func gobRoundTrip(t *testing.T, s Section) Section {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var out Section
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out
}

// TestSectionGobRoundTripRendersIdentically is the property the persistent
// store relies on: a section decoded from its gob payload must render
// byte-identically to the original in every output format.
func TestSectionGobRoundTripRendersIdentically(t *testing.T) {
	table := Table{Title: "t", Headers: []string{"a", "b", "c", "d"}}
	table.AddRow("row", 3.14159, 42, true)
	table.AddRow("edge", math.Inf(1), int64(-9), uint64(1<<63))
	table.AddRow("tiny", 1.2345678901234567e-300, float32(0.25), nil)
	table.AddRow("zero", math.Copysign(0, -1), 0, false)
	series := Series{Title: "s", XLabel: "x", YLabel: "y"}
	series.Add(0.1, 0.2)
	series.Add(math.Pi, -1e-9)
	orig := NewSection("sec", table, series, Text("a note"))

	got := gobRoundTrip(t, orig)

	for _, f := range []Format{FormatText, FormatJSON, FormatCSV} {
		var want, have bytes.Buffer
		dWant := Document{Sections: []Section{orig}}
		dHave := Document{Sections: []Section{got}}
		if err := dWant.Encode(&want, f); err != nil {
			t.Fatalf("encode original (%v): %v", f, err)
		}
		if err := dHave.Encode(&have, f); err != nil {
			t.Fatalf("encode round-tripped (%v): %v", f, err)
		}
		if !bytes.Equal(want.Bytes(), have.Bytes()) {
			t.Errorf("format %v renders differently after gob round trip:\n--- original\n%s\n--- round-tripped\n%s",
				f, want.Bytes(), have.Bytes())
		}
	}
}

// TestCellGobPreservesExactTypes the decoded cell must hold the same concrete
// Go type and bits, not a lossy rendering.
func TestCellGobPreservesExactTypes(t *testing.T) {
	for _, v := range []any{
		nil, "s", "", 3.25, math.Inf(-1), 7, int64(-1), uint64(1 << 63),
		true, false, float32(1.5),
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(CellOf(v)); err != nil {
			t.Fatalf("encode %#v: %v", v, err)
		}
		var c Cell
		if err := gob.NewDecoder(&buf).Decode(&c); err != nil {
			t.Fatalf("decode %#v: %v", v, err)
		}
		if c.v != v {
			t.Errorf("round trip of %#v (%T) = %#v (%T)", v, v, c.v, c.v)
		}
	}
	// NaN compares unequal to itself; check the bits instead.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(CellOf(math.NaN())); err != nil {
		t.Fatal(err)
	}
	var c Cell
	if err := gob.NewDecoder(&buf).Decode(&c); err != nil {
		t.Fatal(err)
	}
	f, ok := c.v.(float64)
	if !ok || math.Float64bits(f) != math.Float64bits(math.NaN()) {
		t.Errorf("NaN round trip = %#v", c.v)
	}
	// -0.0 must keep its sign bit.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(CellOf(math.Copysign(0, -1))); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(&c); err != nil {
		t.Fatal(err)
	}
	f, ok = c.v.(float64)
	if !ok || math.Signbit(f) != true {
		t.Errorf("-0.0 round trip = %#v, sign lost", c.v)
	}
}

// TestCellGobRejectsUnregisteredType a cell holding an unregistered concrete
// type must fail to encode (so the store skips the section) rather than be
// stored lossily.
func TestCellGobRejectsUnregisteredType(t *testing.T) {
	type opaque struct{ X int }
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(CellOf(opaque{X: 1}))
	if err == nil {
		t.Fatal("encoding a cell with an unregistered type succeeded; want an error")
	}
}
