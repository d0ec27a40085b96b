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
// calls per value, and every draw's cursor update is a serial
// store-load chain; lfRand removes all of that by continuing the exact same
// recurrence with batched, data-parallel refills (values 273 apart are
// independent, so a refill of 128 has no loop-carried dependency) into a
// buffer the trial loop indexes with a register-resident cursor.
const (
	lfLen   = 607
	lfTap   = 273
	lfMask  = 1<<63 - 1
	lfTwo63 = float64(1 << 63)
	// lfBuf is the refill batch size; it must stay below lfTap so the
	// batched recurrence never reads a slot the same batch wrote.
	lfBuf = 128
)

// lfRand continues a math/rand lagged-Fibonacci stream.  It is initialised
// by capture, which exploits a structural property of the generator: over
// any 607 consecutive draws, every vector slot is overwritten exactly once
// with the value that was just returned, and the tap/feed cursors complete
// one full revolution.  Capturing 607 raw outputs from the source therefore
// yields (a) the exact next internal state and (b) the outputs themselves,
// which are replayed before the recurrence takes over — so an lfRand's value
// stream is byte-identical to the *rand.Rand it captured, from the first
// draw on.  The dense Monte Carlo's golden tests against the *rand.Rand
// reference enforce this end to end.
type lfRand struct {
	tap, feed int32
	warm      int32 // captured outputs still to replay
	bi        int32 // next unread buf index; lfBuf means "refill needed"
	buf       [lfBuf]int64
	vec       [lfLen]int64
}

// capture drains 607 values from src (one full state revolution) and
// positions the replay cursor at the stream's beginning.
func (r *lfRand) capture(src *rand.Rand) {
	// After Seed, math/rand's rngSource starts at tap=0, feed=607-273; the
	// k-th draw (1-based) decrements both cursors first and stores its
	// output at the new feed position.
	r.tap, r.feed, r.warm, r.bi = 0, lfLen-lfTap, lfLen, lfBuf
	for k := 1; k <= lfLen; k++ {
		i := lfLen - lfTap - k
		if i < 0 {
			i += lfLen
		}
		r.vec[i] = int64(src.Uint64())
	}
}

// genSlow is the scalar recurrence step: the next raw 64-bit value
// (math/rand Source64.Uint64 as int64).  During the warm-up revolution it
// replays the captured outputs by reading them back from the vector without
// modifying it; afterwards it applies the recurrence in place.
func (r *lfRand) genSlow() int64 {
	t, f := r.tap-1, r.feed-1
	if t < 0 {
		t += lfLen
	}
	if f < 0 {
		f += lfLen
	}
	r.tap, r.feed = t, f
	x := r.vec[f]
	if r.warm > 0 {
		r.warm--
		return x
	}
	x += r.vec[t]
	r.vec[f] = x
	return x
}

// refill fills buf with the next lfBuf raw values and rewinds the read
// cursor.  After the warm-up the batch is generated in wrap-free segments
// of independent adds (no carried dependency: lfBuf < lfTap, so a batch
// never reads a slot it wrote); the warm-up revolution itself goes through
// the scalar replay step.  Each segment walks the tap and feed cursors down
// over vec[t-n:t] and vec[f-n:f] while filling buf[i:i+n] upwards.  Indexing
// those re-sliced windows from their end lets the compiler drop the bounds
// checks of both vector loads; only the buf store keeps one.
func (r *lfRand) refill() {
	i := int32(0)
	for r.warm > 0 && i < lfBuf {
		r.buf[i] = r.genSlow()
		i++
	}
	t, f := r.tap, r.feed
	for i < lfBuf {
		if t == 0 {
			t = lfLen
		}
		if f == 0 {
			f = lfLen
		}
		n := min(lfBuf-i, t, f)
		fv, out := r.vec[f-n:f], r.buf[i:i+n]
		tv := r.vec[t-n : t][:len(fv)] // the same length, stated for the compiler
		for k := len(fv) - 1; k >= 0; k-- {
			x := fv[k] + tv[k]
			fv[k] = x
			out[len(fv)-1-k] = x
		}
		t, f, i = t-n, f-n, i+n
	}
	r.tap, r.feed = t, f
	r.bi = 0
}

// gen returns the next raw value through the buffer.  Hot loops that keep
// their own copy of bi (see execDense) bypass this accessor.
func (r *lfRand) gen() int64 {
	if r.bi == lfBuf {
		r.refill()
	}
	v := r.buf[r.bi]
	r.bi++
	return v
}

// int63 matches rand.Rand.Int63.
func (r *lfRand) int63() int64 { return r.gen() & lfMask }

// int31 matches rand.Rand.Int31.
func (r *lfRand) int31() int32 { return int32(r.int63() >> 32) }

// Float64 matches rand.Rand.Float64, including the documented resample when
// the 63-bit value rounds up to 1.0.
func (r *lfRand) Float64() float64 {
	f := float64(r.int63()) / (1 << 63)
	for f == 1 {
		f = float64(r.int63()) / (1 << 63)
	}
	return f
}

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
