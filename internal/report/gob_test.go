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
	table.AddRow("edge", math.Inf(1), math.MinInt, math.NaN())
	table.AddRow("tiny", 1.2345678901234567e-300, "", nil)
	table.AddRow("zero", math.Copysign(0, -1), 0, false)
	series := Series{Title: "s", XLabel: "x", YLabel: "y"}
	series.Add(0.1, 0.2)
	series.Add(math.Pi, -1e-9)
	orig := Section{ID: "sec", Blocks: []Block{table, series, Text("a note")}}

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
		nil, "s", "", 3.25, math.Inf(-1), 7, math.MinInt, math.MaxInt,
		true, false,
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

// TestCellWireFormatIsStable pins each cell kind's wire bytes.  The tags
// are on disk in every store an earlier build wrote, so renumbering one
// would turn every record holding that kind into a store miss.  Tags 4, 5,
// 7 and 8 (int64, uint64, float32 and nested gob, which no build writes
// now) must fail to decode, which the store also counts as a miss.
func TestCellWireFormatIsStable(t *testing.T) {
	for _, tc := range []struct {
		v    any
		wire []byte
	}{
		{nil, []byte{0}},
		{"", []byte{1}},
		{"ab", []byte{1, 'a', 'b'}},
		{0.5, []byte{2, 0x3f, 0xe0, 0, 0, 0, 0, 0, 0}},
		{-2.0, []byte{2, 0xc0, 0, 0, 0, 0, 0, 0, 0}},
		{0, []byte{3, 0}},
		{-3, []byte{3, 5}},
		{300, []byte{3, 0xd8, 0x04}},
		{false, []byte{6, 0}},
		{true, []byte{6, 1}},
	} {
		got, err := CellOf(tc.v).GobEncode()
		if err != nil || !bytes.Equal(got, tc.wire) {
			t.Errorf("GobEncode(%#v) = %v, %v; want %v", tc.v, got, err, tc.wire)
		}
		var c Cell
		if err := c.GobDecode(tc.wire); err != nil || c.v != tc.v {
			t.Errorf("GobDecode(%v) = %#v (%T), %v; want %#v (%T)", tc.wire, c.v, c.v, err, tc.v, tc.v)
		}
	}
	for _, wire := range [][]byte{{4, 2}, {5, 1}, {7, 0x3f, 0x80, 0, 0}, {8}, {}} {
		var c Cell
		if err := c.GobDecode(wire); err == nil {
			t.Errorf("GobDecode(%v) = %#v, want an error", wire, c.v)
		}
	}
}
