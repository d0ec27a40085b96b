package steane

import (
	"testing"
	"testing/quick"
)

func TestCodeStabilizerStructure(t *testing.T) {
	c := NewCode()
	for i, g := range c.StabilizerSupports {
		if Weight(g) != 4 {
			t.Errorf("generator %d has weight %d, want 4", i, Weight(g))
		}
	}
	if Weight(c.LogicalSupport) != 7 {
		t.Errorf("logical support weight = %d, want 7", Weight(c.LogicalSupport))
	}
}

func TestSyndromeColumnsDistinct(t *testing.T) {
	// The parity-check columns must be the 7 distinct non-zero 3-bit values
	// so every single-qubit error has a unique syndrome.
	c := NewCode()
	seen := make(map[uint8]int)
	for q := 0; q < N; q++ {
		s := c.Syndrome(1 << uint(q))
		if s == 0 {
			t.Errorf("qubit %d has zero syndrome", q)
		}
		if prev, ok := seen[s]; ok {
			t.Errorf("qubits %d and %d share syndrome %03b", prev, q, s)
		}
		seen[s] = q
	}
	if len(seen) != 7 {
		t.Errorf("expected 7 distinct syndromes, got %d", len(seen))
	}
}

func TestStabilizersHaveTrivialSyndrome(t *testing.T) {
	c := NewCode()
	// Every product of generators must have zero syndrome and be classified
	// as a stabilizer element.
	for subset := 0; subset < 8; subset++ {
		var mask uint8
		for i := 0; i < 3; i++ {
			if subset&(1<<uint(i)) != 0 {
				mask ^= c.StabilizerSupports[i]
			}
		}
		if c.Syndrome(mask) != 0 {
			t.Errorf("stabilizer product %07b has non-zero syndrome", mask)
		}
		if !c.IsStabilizer(mask) {
			t.Errorf("stabilizer product %07b not classified as stabilizer", mask)
		}
	}
}

func TestLogicalOperatorDetected(t *testing.T) {
	c := NewCode()
	if c.Syndrome(c.LogicalSupport) != 0 {
		t.Error("logical operator should commute with all stabilizers")
	}
	if c.IsStabilizer(c.LogicalSupport) {
		t.Error("logical operator must not be classified as a stabilizer")
	}
	if got := c.Decode(c.LogicalSupport); got != LogicalError {
		t.Errorf("Decode(logical) = %v, want LogicalError", got)
	}
	// A weight-3 representative (logical times a stabilizer) is also logical.
	weight3 := c.LogicalSupport ^ c.StabilizerSupports[2]
	if Weight(weight3) != 3 {
		t.Fatalf("expected weight-3 representative, got weight %d", Weight(weight3))
	}
	if got := c.Decode(weight3); got != LogicalError {
		t.Errorf("Decode(weight-3 logical rep) = %v, want LogicalError", got)
	}
}

func TestSingleErrorsCorrected(t *testing.T) {
	c := NewCode()
	for q := 0; q < N; q++ {
		mask := uint8(1) << uint(q)
		if got := c.Decode(mask); got != Corrected {
			t.Errorf("Decode(single error on q%d) = %v, want Corrected", q, got)
		}
	}
	if got := c.Decode(0); got != NoError {
		t.Errorf("Decode(0) = %v, want NoError", got)
	}
}

func TestCorrectionForRoundTrip(t *testing.T) {
	c := NewCode()
	for q := 0; q < N; q++ {
		mask := uint8(1) << uint(q)
		s := c.Syndrome(mask)
		if got := c.CorrectionFor(s); got != mask {
			t.Errorf("CorrectionFor(syndrome of q%d) = %07b, want %07b", q, got, mask)
		}
	}
	if c.CorrectionFor(0) != 0 {
		t.Error("CorrectionFor(0) should be no correction")
	}
}

// Property: decoding is exhaustive and consistent over all 128 X-error
// patterns — patterns equivalent up to a stabilizer decode identically, and
// decoding never reports NoError for a pattern with a non-trivial syndrome.
func TestDecodeExhaustive(t *testing.T) {
	c := NewCode()
	logical := 0
	for pattern := 0; pattern < 128; pattern++ {
		mask := uint8(pattern)
		res := c.Decode(mask)
		if c.Syndrome(mask) != 0 && res == NoError {
			t.Errorf("pattern %07b has non-trivial syndrome but decoded NoError", mask)
		}
		if res == LogicalError {
			logical++
		}
		// Multiplying by any stabilizer generator must not change the verdict
		// between "harmless" (NoError/Corrected) and LogicalError.
		for _, g := range c.StabilizerSupports {
			res2 := c.Decode(mask ^ g)
			if (res == LogicalError) != (res2 == LogicalError) {
				t.Errorf("pattern %07b and stabilizer-equivalent %07b decode differently (%v vs %v)",
					mask, mask^g, res, res2)
			}
		}
	}
	// Of the 128 patterns, 64 are "closer" to a logical operator: the code
	// corrects weight<=1 and misdecodes half of the higher-weight patterns.
	if logical == 0 || logical == 128 {
		t.Errorf("implausible logical-error pattern count %d", logical)
	}
}

// Property: Decode(e) == LogicalError exactly when e has trivial residual
// syndrome but odd weight after the implied correction.
func TestDecodeParityCharacterisation(t *testing.T) {
	c := NewCode()
	f := func(raw uint8) bool {
		mask := raw & 0x7F
		res := c.Decode(mask)
		residual := mask ^ c.CorrectionFor(c.Syndrome(mask))
		wantLogical := c.Syndrome(residual) == 0 && Weight(residual)%2 == 1
		return (res == LogicalError) == wantLogical
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodingPivots(t *testing.T) {
	c := NewCode()
	rows := c.EncodingPivots()
	if len(rows) != 3 {
		t.Fatalf("expected 3 encoding rows, got %d", len(rows))
	}
	totalCX := 0
	for _, row := range rows {
		totalCX += len(row.Targets)
		// pivot + targets must equal the support of one stabilizer generator.
		mask := maskOf(row.Pivot)
		for _, tgt := range row.Targets {
			mask |= maskOf(tgt)
		}
		found := false
		for _, g := range c.StabilizerSupports {
			if g == mask {
				found = true
			}
		}
		if !found {
			t.Errorf("encoding row %v does not match any stabilizer generator", row)
		}
	}
	if totalCX != 9 {
		t.Errorf("encoding uses %d CX gates, want 9 (Figure 3b)", totalCX)
	}
}

func TestVerificationSupportIsLogicalZRepresentative(t *testing.T) {
	c := NewCode()
	sup := c.VerificationSupport()
	if len(sup) != 3 {
		t.Fatalf("verification support size = %d, want 3", len(sup))
	}
	var mask uint8
	for _, q := range sup {
		mask |= 1 << uint(q)
	}
	// The support must be logical-Z times a stabilizer: trivial syndrome,
	// odd weight.
	if c.Syndrome(mask) != 0 {
		t.Error("verification support must commute with all stabilizers")
	}
	if Weight(mask)%2 != 1 {
		t.Error("verification support must be a logical representative (odd weight)")
	}
}

func TestSupportQubitsAndWeight(t *testing.T) {
	mask := maskOf(1, 3, 6)
	if Weight(mask) != 3 {
		t.Errorf("Weight = %d, want 3", Weight(mask))
	}
}
