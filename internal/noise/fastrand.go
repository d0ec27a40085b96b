package noise

import "math/rand"

// math/rand's default Source (rand.NewSource) is an additive lagged-Fibonacci
// generator over a 607-entry vector with tap offset 273:
//
//	x[n] = x[n-273] + x[n-607]  (wrapping int64 addition)
//
// Its value stream for a given seed is frozen by the Go 1 compatibility
// promise, and the experiment engine seeds every job's *rand.Rand from
// rand.NewSource, so the Monte Carlo hot loop is entitled to rely on it.
// Drawing through *rand.Rand costs an interface dispatch plus two method
// calls per value; lfRand continues the exact same recurrence on its own
// copy of the vector.  Its scalar step serves the rare draws of faulty
// trials and the samplers that draw a few values per trial, and scan lets
// the dense fault scan compute and test its values in place, with the
// cursors in registers.
const (
	lfLen   = 607
	lfTap   = 273
	lfMask  = 1<<63 - 1
	lfTwo63 = float64(1 << 63)
)

// lfRand continues a math/rand lagged-Fibonacci stream.  It is initialised
// by capture, which drains 607 outputs from the source and solves the
// recurrence backwards for the state that yields them as its next 607
// outputs (see plant).  So an lfRand's value stream is byte-identical to
// the *rand.Rand it captured, from the first draw on; the dense Monte
// Carlo's golden tests against the *rand.Rand reference enforce this end to
// end.
type lfRand struct {
	tap, feed int
	vec       [lfLen]int64
}

// capture drains 607 values from src (one full state revolution) and
// plants them as the stream's next outputs.
func (r *lfRand) capture(src *rand.Rand) {
	var out [lfLen]int64
	for j := range out {
		out[j] = int64(src.Uint64())
	}
	r.plant(&out)
}

// plant positions the generator at the start of a revolution, where
// math/rand's rngSource stands after Seed, so that its next lfLen outputs
// are want.  Draw j (from 0) moves the tap to T_j = lfLen-1-j and the feed
// to F_j = T_j-lfTap (mod lfLen), and adds vec[T_j] into vec[F_j], which it
// returns; so at the revolution's end slot F_j holds want[j].  plant stores
// that end state and then unwinds the revolution, subtracting from each
// F_j what draw j added: want[j-lfTap] for j >= lfTap, drawn earlier in the
// revolution and so still in place, and otherwise the starting value of
// T_j, which the later draw j+lfLen-lfTap feeds and so is already unwound.
// Unwinding the draws in reverse order meets both conditions; it walks the
// feed slots upwards from lfLen-lfTap, wrapping once.
func (r *lfRand) plant(want *[lfLen]int64) {
	r.tap, r.feed = 0, lfLen-lfTap
	for j, v := range want {
		f := lfLen - lfTap - 1 - j
		if f < 0 {
			f += lfLen
		}
		r.vec[f] = v
	}
	for f := lfLen - lfTap; f < lfLen; f++ {
		r.vec[f] -= r.vec[f+lfTap-lfLen]
	}
	for f := 0; f < lfLen-lfTap; f++ {
		r.vec[f] -= r.vec[f+lfTap]
	}
}

// gen is the scalar recurrence step: the next raw 64-bit value (math/rand
// Source64.Uint64 as int64).
func (r *lfRand) gen() int64 {
	t, f := r.tap-1, r.feed-1
	if t < 0 {
		t += lfLen
	}
	if f < 0 {
		f += lfLen
	}
	r.tap, r.feed = t, f
	x := r.vec[f] + r.vec[t]
	r.vec[f] = x
	return x
}

// scan advances the stream over up to n values, testing each one's 63-bit
// image against the window [lo, hi) as the recurrence computes it.  It
// returns the number k of values inside the window it passed; when k < n it
// has also consumed the next value, v, the first outside the window.  So
// scan leaves the generator exactly where k+1 (or n) gen calls would.
//
// It works in wrap-free segments: each walks the tap and feed cursors down
// over vec[t-m:t] and vec[f-m:f], storing every value back in place.
// Indexing those re-sliced windows from their end lets the compiler drop
// the bounds checks of both loads and the store.  Where the two windows
// overlap (a segment longer than lfTap), the tap reads a value the same
// segment wrote lfTap steps earlier, as the scalar step would.
//
// The segment loop is unrolled four ways, with a scalar tail for the last
// m mod 4 values.  Each turn still computes, stores and tests one value
// before the next, in stream order, so a turn stops exactly where the
// scalar loop would.  Every exit leaves by index and the value is read
// back from fv[i] after the loop: were the stopping value live on an exit,
// the compiler would spill each one to a stack slot, a second store per
// value.
func (r *lfRand) scan(n int, lo, hi uint64) (k int, v int64) {
	width := hi - lo
	t, f := r.tap, r.feed
	for k < n {
		if t == 0 {
			t = lfLen
		}
		if f == 0 {
			f = lfLen
		}
		m := min(n-k, t, f)
		fv := r.vec[f-m : f]
		tv := r.vec[t-m : t][:len(fv)] // the same length, stated for the compiler
		i := len(fv) - 1
		for ; i >= 3; i -= 4 {
			x := fv[i] + tv[i]
			fv[i] = x
			if uint64(x&lfMask)-lo >= width {
				goto stop
			}
			x = fv[i-1] + tv[i-1]
			fv[i-1] = x
			if uint64(x&lfMask)-lo >= width {
				i -= 1
				goto stop
			}
			x = fv[i-2] + tv[i-2]
			fv[i-2] = x
			if uint64(x&lfMask)-lo >= width {
				i -= 2
				goto stop
			}
			x = fv[i-3] + tv[i-3]
			fv[i-3] = x
			if uint64(x&lfMask)-lo >= width {
				i -= 3
				goto stop
			}
		}
		for ; i >= 0; i-- {
			x := fv[i] + tv[i]
			fv[i] = x
			if uint64(x&lfMask)-lo >= width {
				goto stop
			}
		}
		t, f, k = t-m, f-m, k+m
		continue
	stop:
		r.tap, r.feed = t-m+i, f-m+i
		return k + len(fv) - 1 - i, fv[i] & lfMask
	}
	r.tap, r.feed = t, f
	return n, 0
}

// draw returns the next 63-bit value that Float64 would divide by 2⁶³,
// including its documented resample: a value at or above lfRetryMin rounds
// up to 1.0 and is drawn again.  The compiled executors compare it with a
// location's integer fault threshold (see intThreshold).
func (r *lfRand) draw() int64 {
	v := r.gen() & lfMask
	for v >= lfRetryMin {
		v = r.gen() & lfMask
	}
	return v
}

// int63 matches rand.Rand.Int63.
func (r *lfRand) int63() int64 { return r.gen() & lfMask }

// int31 matches rand.Rand.Int31.
func (r *lfRand) int31() int32 { return int32(r.int63() >> 32) }

// Float64 matches rand.Rand.Float64.
func (r *lfRand) Float64() float64 { return float64(r.draw()) / (1 << 63) }

// intn matches rand.Rand.Intn for 0 < n <= 1<<31: the power-of-two mask
// shortcut and the modulo-bias rejection loop consume draws in exactly the
// same pattern.
func (r *lfRand) intn(n int) int {
	if n&(n-1) == 0 {
		return int(r.int31() & int32(n-1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.int31()
	for v > max {
		v = r.int31()
	}
	return int(v % int32(n))
}
