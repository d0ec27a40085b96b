package engine

import (
	"fmt"
	"strings"
	"testing"
)

// legacyFingerprint is the original reflection-based implementation, kept
// here as the oracle: every key the typed builder produces must be
// byte-identical, because keys seed the per-job RNG streams and changing a
// single byte would silently change every Monte Carlo estimate.
func legacyFingerprint(parts ...any) string {
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%v", p)
	}
	return b.String()
}

type stringerPart struct{ name string }

func (s stringerPart) String() string { return "str:" + s.name }

type structPart struct {
	A float64
	B float64
	C int
}

type keyerPart struct{ v int }

func (k keyerPart) AppendKey(b []byte) []byte {
	// Matches %v of the struct: "{<v>}".
	b = append(b, '{')
	b = fmt.Appendf(b, "%d", k.v)
	return append(b, '}')
}

func TestFingerprintMatchesLegacyRendering(t *testing.T) {
	cases := [][]any{
		{"mc", 3, 1.5},
		{"noise.mc", "verify-and-correct/133/abcdef", structPart{1e-4, 1e-6, 6}, int64(-7), 0, 8192},
		{"floats", 0.0, 1e-300, -2.5, 1.0 / 3.0, 42.0},
		{"bools", true, false},
		{"stringer", stringerPart{"qcla"}, stringerPart{""}},
		{"slices", []int{1, 2, 3}, []string{"a", "b"}},
		{"mixed", int64(1 << 62), -1, uint8(7), 3.14},
		{"empty", ""},
	}
	for _, parts := range cases {
		want := legacyFingerprint(parts...)
		if got := Fingerprint(parts...); got != want {
			t.Errorf("Fingerprint(%v) = %q, want legacy %q", parts, got, want)
		}
	}
}

func TestFingerprintUsesKeyerFastPath(t *testing.T) {
	if got, want := Fingerprint("k", keyerPart{12}), "k|{12}"; got != want {
		t.Fatalf("Keyer part = %q, want %q", got, want)
	}
}

// Fingerprint pays interface boxing for non-constant parts but must not
// regress to reflection-level allocation counts, with or without a Keyer
// part.  The second call has a Monte Carlo chunk key's parts: a domain, a
// fingerprint string, the error model (a Keyer), the seed, the chunk index
// and its trial count.  Boxing a part allocates unless it is a constant or a
// one-word value below 256, so a 24-byte noise.Model and a chunk index from
// 256 up each add one allocation to what this bound counts.
func TestFingerprintAllocations(t *testing.T) {
	fp := "some/protocol/fingerprint"
	seed := int64(42)
	allocs := testing.AllocsPerRun(1000, func() {
		_ = Fingerprint("noise.mc", fp, seed, 300, 8192)
	})
	if allocs > 4 {
		t.Fatalf("Fingerprint allocations = %v, want <= 4", allocs)
	}
	model, chunk, trials := keyerPart{4}, 17, 8192
	allocs = testing.AllocsPerRun(1000, func() {
		_ = Fingerprint("noise.mc", fp, model, seed, chunk, trials)
	})
	if allocs > 4 {
		t.Fatalf("Fingerprint allocations with a Keyer part = %v, want <= 4", allocs)
	}
}
