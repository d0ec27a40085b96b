package noise

import (
	"math/rand"
	"testing"
)

// The whole compiled Monte Carlo rests on lfRand reproducing math/rand's
// stream exactly, through the scalar step and through scan.  Compare the
// scalar step against a twin *rand.Rand over enough values to cycle the
// 607-entry state vector many times: the captured revolution, its end and
// every tap/feed wrap.  Interleaved, scan runs over random counts and
// windows, empty and full ones included: it must return the first value
// outside its window and leave the generator equal to a twin that made the
// same number of gen calls.
func TestLFRandMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 42, 1 << 40, -(1 << 52)} {
		var lf lfRand
		lf.capture(rand.New(rand.NewSource(seed)))
		twin := lf
		ref := rand.New(rand.NewSource(seed))
		pick := rand.New(rand.NewSource(seed + 1))
		// Full-window scans first end the captured revolution exactly and
		// then step over its end.
		counts := []int{0, 1, lfLen - 2, 1, 1}
		for drawn := 0; drawn < 20000; {
			lo, hi := uint64(0), uint64(1<<63)
			n := pick.Intn(2 * lfLen)
			if len(counts) > 0 {
				n, counts = counts[0], counts[1:]
			} else {
				switch pick.Intn(4) {
				case 0: // full
				case 1: // empty
					lo = pick.Uint64() >> 1
					hi = lo
				case 2: // the dense scan's shape: outliers are rare
					lo, hi = uint64(pick.Int63n(1<<55)), uint64(lfRetryMin)
				default:
					lo = pick.Uint64() >> 1
					hi = lo + pick.Uint64()%(1<<63-lo+1)
				}
			}
			k, v := lf.scan(n, lo, hi)
			wantK := n
			for i := 0; i < n; i++ {
				x := twin.gen() & lfMask
				if want := ref.Int63(); x != want {
					t.Fatalf("seed %d draw %d: gen = %d, math/rand Int63 = %d", seed, drawn+i, x, want)
				}
				if uint64(x) < lo || uint64(x) >= hi {
					if wantK = i; v != x {
						t.Fatalf("seed %d draw %d: scan over [%d, %d) stopped on %d, want %d", seed, drawn+i, lo, hi, v, x)
					}
					break
				}
			}
			if k != wantK || lf != twin {
				t.Fatalf("seed %d draw %d: scan(%d, [%d, %d)) passed %d values, want %d; generators equal: %v",
					seed, drawn, n, lo, hi, k, wantK, lf == twin)
			}
			drawn += min(k+1, n)
		}
	}
}

func TestLFRandFloat64AndIntnMatchMathRand(t *testing.T) {
	for _, seed := range []int64{1, 99, -12345} {
		var lf lfRand
		lf.capture(rand.New(rand.NewSource(seed)))
		ref := rand.New(rand.NewSource(seed))
		// Interleave the exact call mix of a Monte Carlo trial: mostly
		// Float64, with occasional Intn of the fault-choice sizes.
		for i := 0; i < 20000; i++ {
			if got, want := lf.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, got, want)
			}
			if i%7 == 0 {
				n := []int{1, 3, 6}[i%3]
				if got, want := lf.intn(n), ref.Intn(n); got != want {
					t.Fatalf("seed %d draw %d: intn(%d) = %d, want %d", seed, i, n, got, want)
				}
			}
		}
	}
}

// The integer threshold comparison used by the dense trial loop must agree
// with Float64() < p for every location probability, because that is how
// the legacy injector decides faults.  The raw-value retry bound must match
// the f == 1 resample too.
func TestLFRandThresholdEquivalence(t *testing.T) {
	probs := []float64{1e-6, 1e-4, 0.5, 0.999999, 1}
	var a, b lfRand
	a.capture(rand.New(rand.NewSource(7)))
	b.capture(rand.New(rand.NewSource(7)))
	for i := 0; i < 50000; i++ {
		p := probs[i%len(probs)]
		vthresh := intThreshold(p)
		if got, want := b.draw() < vthresh, a.Float64() < p; got != want {
			t.Fatalf("draw %d p=%v: integer compare = %v, Float64 compare = %v", i, p, got, want)
		}
	}
}

// The retry bound and threshold compiler agree with the float64 rounding
// boundary at the edges.
func TestIntThresholdBoundaries(t *testing.T) {
	if intThreshold(0) != -1 || intThreshold(-0.5) != -1 {
		t.Error("non-positive probabilities must compile to the no-draw sentinel")
	}
	for _, v := range []int64{lfRetryMin - 1, lfRetryMin, lfRetryMin + 1} {
		want := float64(v)/(1<<63) == 1
		if got := v >= lfRetryMin; got != want {
			t.Errorf("retry bound wrong at %d: integer %v, float %v", v, got, want)
		}
	}
	for _, p := range []float64{1e-300, 1e-9, 1e-4, 0.25, 0.5, 1 - 1e-16, 1} {
		vt := intThreshold(p)
		for _, v := range []int64{vt - 1, vt, vt + 1} {
			if v < 0 || v > lfMask {
				continue
			}
			f := float64(v) / (1 << 63)
			if f == 1 {
				continue // resampled before the compare
			}
			if got, want := v < vt, f < p; got != want {
				t.Errorf("p=%v v=%d: integer compare %v, float compare %v", p, v, got, want)
			}
		}
	}
}
