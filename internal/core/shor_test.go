package core

import (
	"context"
	"testing"
	"testing/quick"
)

func TestEstimateShorBasics(t *testing.T) {
	opts := DefaultOptions()
	est, err := EstimateShor(context.Background(), nil, 16, ShorRippleCarry, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est.Bits != 16 || est.Adder != ShorRippleCarry {
		t.Errorf("estimate header wrong: %+v", est)
	}
	// 2*(4n^2 + 2n) adder calls for n=16.
	if want := 2 * (4*16*16 + 2*16); est.AdderInvocations != want {
		t.Errorf("adder invocations = %d, want %d", est.AdderInvocations, want)
	}
	if est.ExecutionTime <= 0 || est.ExecutionTimeSeconds() <= 0 {
		t.Error("execution time must be positive")
	}
	if est.ZeroFactories < 1 || est.Pi8Factories < 1 {
		t.Errorf("factory counts = %d/%d, want at least one each", est.ZeroFactories, est.Pi8Factories)
	}
	if est.ChipArea <= 0 {
		t.Error("chip area must be positive")
	}
	// The application-level speedup from offline ancilla preparation matches
	// the per-kernel speedups (around 5x).
	if est.Speedup() < 3 || est.Speedup() > 8 {
		t.Errorf("application speedup = %.1f, expected around 5x", est.Speedup())
	}
	// The exponentiation dominated by adders: execution time is at least the
	// adder count times the per-adder speed-of-data time.
	perAdder := float64(est.AdderAnalysis.Characterization.SpeedOfDataTime)
	if float64(est.ExecutionTime) < float64(est.AdderInvocations)*perAdder {
		t.Error("execution time must cover all adder invocations")
	}
}

func TestEstimateShorErrors(t *testing.T) {
	opts := DefaultOptions()
	if _, err := EstimateShor(context.Background(), nil, 1, ShorRippleCarry, opts); err == nil {
		t.Error("1-bit modulus should be rejected")
	}
	if _, err := EstimateShor(context.Background(), nil, 8, ShorAdder(99), opts); err == nil {
		t.Error("unknown adder should be rejected")
	}
	if ShorAdder(99).String() == "" {
		t.Error("unknown adder should still render")
	}
	if ShorRippleCarry.String() != "ripple-carry" || ShorCarryLookahead.String() != "carry-lookahead" {
		t.Error("adder names wrong")
	}
}

func TestCompareShorAddersTradeoff(t *testing.T) {
	// The latency/area trade-off the paper's two adders stand for: the
	// carry-lookahead build finishes sooner but needs a bigger chip (more
	// ancilla factories).
	ripple, lookahead, err := CompareShorAddersEngine(context.Background(), nil, 16, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if lookahead.ExecutionTime >= ripple.ExecutionTime {
		t.Errorf("carry-lookahead Shor (%.1fs) should beat ripple-carry (%.1fs)",
			lookahead.ExecutionTimeSeconds(), ripple.ExecutionTimeSeconds())
	}
	if lookahead.ZeroBandwidthPerMs <= ripple.ZeroBandwidthPerMs {
		t.Error("carry-lookahead should demand more ancilla bandwidth")
	}
	if lookahead.ChipArea <= ripple.ChipArea {
		t.Error("carry-lookahead should need a larger chip")
	}
}

// Property: execution time and chip area grow monotonically with modulus
// width for the ripple-carry build.
func TestShorScalingProperty(t *testing.T) {
	opts := DefaultOptions()
	cache := map[int]ShorEstimate{}
	estimate := func(bits int) ShorEstimate {
		if e, ok := cache[bits]; ok {
			return e
		}
		e, err := EstimateShor(context.Background(), nil, bits, ShorRippleCarry, opts)
		if err != nil {
			t.Fatal(err)
		}
		cache[bits] = e
		return e
	}
	f := func(raw uint8) bool {
		bits := int(raw%5)*4 + 4 // 4, 8, 12, 16, 20
		small := estimate(bits)
		big := estimate(bits + 4)
		return big.ExecutionTime > small.ExecutionTime && big.ChipArea >= small.ChipArea
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
