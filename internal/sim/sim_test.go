package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"speedofdata/internal/iontrap"
)

// newProducer returns a Producer initialised through Reset, the way the
// replays set up their pooled producers.
func newProducer(k *Kernel, name string, out *Resource, ratePerUs float64) (*Producer, error) {
	p := new(Producer)
	if err := p.Reset(k, name, out, ratePerUs); err != nil {
		return nil, err
	}
	return p, nil
}

func TestKernelFiresInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	at(k, 30, PriorityNormal, func() { order = append(order, 3) })
	at(k, 10, PriorityNormal, func() { order = append(order, 1) })
	at(k, 20, PriorityNormal, func() {
		order = append(order, 2)
		// Events scheduled mid-run interleave by time.
		at(k, k.Now()+5, PriorityNormal, func() { order = append(order, 25) })
	})
	stats := k.Run()
	want := []int{1, 2, 25, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if stats.Events != 4 || stats.End != 30 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestKernelTieBreakIsStable(t *testing.T) {
	// Same timestamp: priority first, then insertion order — repeatably.
	for trial := 0; trial < 3; trial++ {
		k := NewKernel()
		var order []string
		at(k, 5, PriorityLate, func() { order = append(order, "late-a") })
		at(k, 5, PriorityNormal, func() { order = append(order, "normal-a") })
		at(k, 5, PriorityNormal, func() { order = append(order, "normal-b") })
		at(k, 5, PriorityLate, func() { order = append(order, "late-b") })
		k.Run()
		want := []string{"normal-a", "normal-b", "late-a", "late-b"}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("trial %d: fired %v, want %v", trial, order, want)
			}
		}
	}
}

func TestKernelRejectsPastEvents(t *testing.T) {
	k := NewKernel()
	mustPanic := func(what string, schedule func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", what)
			}
		}()
		schedule()
	}
	fired := 0
	at(k, 10, PriorityNormal, func() {
		mustPanic("AtFire into the past", func() { at(k, 5, PriorityNormal, func() { fired++ }) })
		mustPanic("AfterFire with a negative delay", func() {
			k.AfterFire(-1, PriorityNormal, k.Handle(fireFunc(func(int) { fired++ })), 0)
		})
		mustPanic("AtFire at an undefined priority", func() {
			k.AtFire(k.Now()+1, PriorityLate+1, k.Handle(fireFunc(func(int) { fired++ })), 0)
		})
	})
	if stats := k.Run(); stats.Events != 1 || fired != 0 {
		t.Errorf("fired %d rejected events in a run of %d, want none in a run of 1", fired, stats.Events)
	}
}

func TestKernelStopDropsRemainingEvents(t *testing.T) {
	k := NewKernel()
	fired := 0
	at(k, 1, PriorityNormal, func() { fired++; k.Stop() })
	at(k, 2, PriorityNormal, func() { fired++ })
	stats := k.Run()
	if fired != 1 || stats.Events != 1 {
		t.Errorf("fired %d events after Stop, want 1", fired)
	}
	if len(k.heap) != 1 {
		t.Errorf("pending = %d, want 1", len(k.heap))
	}
}

func TestFluidSourceMatchesTokenBucket(t *testing.T) {
	var s FluidSource
	if err := s.Reset(0.5); err != nil { // 0.5 ancillae per µs
		t.Fatal(err)
	}
	// The closed-form token bucket returns consumed/rate after accumulating.
	if got := s.AvailableAt(2); got != 4 {
		t.Errorf("first acquire at %v, want 4", got)
	}
	if got := s.AvailableAt(3); got != 10 {
		t.Errorf("second acquire at %v, want 10", got)
	}
	if s.consumed != 5 {
		t.Errorf("consumed = %v, want 5", s.consumed)
	}
	// An infinite rate grants immediately.
	var inf FluidSource
	if err := inf.Reset(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if got := inf.AvailableAt(100); got != 0 {
		t.Errorf("infinite-rate source granted at %v, want 0", got)
	}
}

func TestZeroRateIsTypedError(t *testing.T) {
	var s FluidSource
	if err := s.Reset(0); !errors.Is(err, ErrZeroRate) {
		t.Errorf("zero-rate fluid source error = %v, want ErrZeroRate", err)
	}
	if err := s.Reset(-1); !errors.Is(err, ErrZeroRate) {
		t.Errorf("negative-rate fluid source error = %v, want ErrZeroRate", err)
	}
	k := NewKernel()
	out := NewResource(k, "buf", 4)
	if _, err := newProducer(k, "p", out, 0); !errors.Is(err, ErrZeroRate) {
		t.Errorf("zero-rate producer error = %v, want ErrZeroRate", err)
	}
}

func TestResourceGrantsFIFO(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "anc", 0) // unbounded
	var grants []string
	var times []iontrap.Microseconds
	at(k, 0, PriorityNormal, func() {
		acquire(r, 2, func() { grants = append(grants, "first"); times = append(times, k.Now()) })
		acquire(r, 1, func() { grants = append(grants, "second"); times = append(times, k.Now()) })
	})
	at(k, 5, PriorityNormal, func() { r.Put(2) })  // completes only the first
	at(k, 10, PriorityNormal, func() { r.Put(5) }) // completes the second, rest buffered
	k.Run()
	if len(grants) != 2 || grants[0] != "first" || grants[1] != "second" {
		t.Fatalf("grants = %v", grants)
	}
	// Both requests were made at t=0: the first waited until t=5, the
	// second until t=10.
	if times[0] != 5 || times[1] != 10 {
		t.Errorf("granted at %v, want [5 10]", times)
	}
	// Of the 7 units put, 3 went to the requests and 4 stay buffered.
	if r.Consumed() != 3 || r.level != 4 {
		t.Errorf("consumed %v with %v left buffered, want 3 and 4", r.Consumed(), r.level)
	}
}

func TestAcquireLargerThanCapacityDrainsIncrementally(t *testing.T) {
	// Demand 6 against a buffer of 2: deliveries stream through the buffer
	// as they are produced, so the request still completes.
	k := NewKernel()
	r := NewResource(k, "anc", 2)
	p, err := newProducer(k, "factory", r, 1.0) // 1 per µs
	if err != nil {
		t.Fatal(err)
	}
	var grantedAt iontrap.Microseconds = -1
	at(k, 0, PriorityNormal, func() {
		acquire(r, 6, func() { grantedAt = k.Now(); k.Stop() })
		p.Start()
	})
	k.Run()
	if grantedAt != 6 {
		t.Errorf("demand of 6 at 1/µs granted at %v, want 6", grantedAt)
	}
}

func TestProducerStallsOnFullBuffer(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "anc", 3)
	p, err := newProducer(k, "factory", r, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var level float64
	at(k, 0, PriorityNormal, func() { p.Start() })
	// By t=3 the buffer is full; the producer holds its 4th item and stalls.
	// At t=10 a consumer takes 2, unblocking production.
	at(k, 10, PriorityNormal, func() { acquire(r, 2, func() {}) })
	at(k, 20, PriorityNormal, func() {
		level = r.level
		k.Stop()
	})
	k.Run()
	if p.StallTime() < 5 {
		t.Errorf("producer stall = %v, want >= 5 (stalled from ~t=4 to t=10)", p.StallTime())
	}
	if r.HighWater() != 3 {
		t.Errorf("high water = %v, want the 3-ancilla capacity", r.HighWater())
	}
	if level != 3 {
		t.Errorf("level at t=20 = %v, want refilled to capacity 3", level)
	}
	// Refilled after the consumer took 2: production resumed past the
	// first 3 units.
	if got := r.Consumed() + level; got != 5 {
		t.Errorf("deposited %v units, want 5: production should have resumed", got)
	}
}

func TestDeterministicRepeatedRuns(t *testing.T) {
	run := func() (float64, iontrap.Microseconds, int) {
		k := NewKernel()
		r := NewResource(k, "anc", 4)
		p, err := newProducer(k, "factory", r, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		at(k, 0, PriorityNormal, func() { p.Start() })
		for i := 1; i <= 5; i++ {
			n := float64(i)
			at(k, iontrap.Microseconds(i)*3, PriorityNormal, func() {
				acquire(r, n, func() {
					total++
					if total == 5 {
						k.Stop()
					}
				})
			})
		}
		stats := k.Run()
		return r.consumed, stats.End, stats.Events
	}
	c1, e1, n1 := run()
	c2, e2, n2 := run()
	if c1 != c2 || e1 != e2 || n1 != n2 {
		t.Errorf("runs differ: (%v,%v,%v) vs (%v,%v,%v)", c1, e1, n1, c2, e2, n2)
	}
}

// refEvent is the reference scheduler's event: the handler itself, and the
// priority and the insertion sequence as fields of their own.
type refEvent struct {
	at  iontrap.Microseconds
	pri Priority
	seq uint64
	h   Handler
	idx int
}

// before compares field by field: time, then priority, then sequence.
func (e *refEvent) before(o *refEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.pri != o.pri {
		return e.pri < o.pri
	}
	return e.seq < o.seq
}

// heapKernel is the reference scheduler: one binary heap over every event,
// whose order Kernel's lanes and packed keys must reproduce exactly.  It
// shares no event type or comparator with Kernel.
type heapKernel struct {
	now      iontrap.Microseconds
	seq      uint64
	events   []refEvent
	handlers []Handler
	stopped  bool
	stats    Stats
}

func (k *heapKernel) Now() iontrap.Microseconds { return k.now }

func (k *heapKernel) Handle(h Handler) HandlerID {
	k.handlers = append(k.handlers, h)
	return HandlerID(len(k.handlers) - 1)
}

func (k *heapKernel) AtFire(t iontrap.Microseconds, pri Priority, h HandlerID, idx int) {
	if t < k.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before current time %v", t, k.now))
	}
	k.events = append(k.events, refEvent{at: t, pri: pri, seq: k.seq, h: k.handlers[h], idx: idx})
	k.seq++
	for i := len(k.events) - 1; i > 0; {
		parent := (i - 1) / 2
		if k.events[parent].before(&k.events[i]) {
			break
		}
		k.events[parent], k.events[i] = k.events[i], k.events[parent]
		i = parent
	}
}

func (k *heapKernel) AfterFire(d iontrap.Microseconds, pri Priority, h HandlerID, idx int) {
	k.AtFire(k.now+d, pri, h, idx)
}

func (k *heapKernel) Stop() { k.stopped = true }

func (k *heapKernel) Run() Stats {
	for !k.stopped && len(k.events) > 0 {
		e := k.pop()
		k.now = e.at
		k.stats.Events++
		k.stats.End = e.at
		e.h.Fire(e.idx)
	}
	return k.stats
}

func (k *heapKernel) pop() refEvent {
	top := k.events[0]
	last := len(k.events) - 1
	k.events[0] = k.events[last]
	k.events = k.events[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(k.events) && k.events[l].before(&k.events[smallest]) {
			smallest = l
		}
		if r < len(k.events) && k.events[r].before(&k.events[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		k.events[i], k.events[smallest] = k.events[smallest], k.events[i]
		i = smallest
	}
	return top
}

// scheduler is the surface TestKernelMatchesHeapOrder drives on both
// kernels.
type scheduler interface {
	Now() iontrap.Microseconds
	Handle(h Handler) HandlerID
	AtFire(t iontrap.Microseconds, pri Priority, h HandlerID, idx int)
	AfterFire(d iontrap.Microseconds, pri Priority, h HandlerID, idx int)
	Stop()
}

// firing is one fired event: its time, handler and payload.
type firing struct {
	at  iontrap.Microseconds
	h   int
	idx int
}

// chaos is a random workload scheduled from inside its own handlers: each
// fired event is recorded and schedules a few more, each through a randomly
// chosen path.  Its choices depend only on its seed and on the order events
// fire in, so two kernels that fire the same sequence build the same
// schedule, and the first misordered event shows.
type chaos struct {
	k      scheduler
	rng    *rand.Rand
	hs     [3]chaosHandler
	ids    [3]HandlerID           // hs on k
	delays []iontrap.Microseconds // AfterFire's delays; the last is retuned
	times  []iontrap.Microseconds // every time scheduled so far
	budget int                    // events still to schedule
	stopAt int                    // Stop at this many firings; 0 runs out
	fanout int                    // each firing schedules fewer than this
	fired  []firing
}

type chaosHandler struct {
	c  *chaos
	id int
}

func (h *chaosHandler) Fire(idx int) {
	c := h.c
	c.fired = append(c.fired, firing{c.k.Now(), h.id, idx})
	if len(c.fired) == c.stopAt {
		c.k.Stop()
	}
	for n := c.rng.Intn(c.fanout); n > 0; n-- {
		c.schedule()
	}
}

// newChaos seeds a workload on k with its first few events.
func newChaos(k scheduler, seed int64) *chaos {
	c := &chaos{
		k:      k,
		rng:    rand.New(rand.NewSource(seed)),
		delays: []iontrap.Microseconds{0, 0.1, 0.3, 1.5},
		times:  []iontrap.Microseconds{0},
	}
	for i := range c.hs {
		c.hs[i] = chaosHandler{c: c, id: i}
		c.ids[i] = k.Handle(&c.hs[i])
	}
	c.budget = 20 + c.rng.Intn(400)
	// A workload whose events schedule 1.5 more on average grows until its
	// budget runs out, so lanes fill while they fire: their rings wrap and
	// grow with the head mid-ring.  The others hover at a few events.
	c.fanout = 3 + c.rng.Intn(2)
	if c.rng.Intn(3) > 0 {
		c.stopAt = 1 + c.rng.Intn(c.budget)
	}
	for n := 1 + c.rng.Intn(12); n > 0; n-- {
		c.schedule()
	}
	return c
}

// schedule adds one event, unless the budget is spent.
func (c *chaos) schedule() {
	if c.budget == 0 {
		return
	}
	c.budget--
	h, idx, pri := c.ids[c.rng.Intn(len(c.ids))], c.rng.Intn(1000), Priority(c.rng.Intn(2))
	now := c.k.Now()
	t := now
	switch c.rng.Intn(8) {
	case 0:
		// AtFire at the current time, under either priority.
	case 1:
		// A time scheduled before, so events share it, when still ahead.
		t = max(now, c.times[c.rng.Intn(len(c.times))])
	case 2:
		// A computed time equal to the one AfterFire gives the same delay.
		t = now + c.delays[c.rng.Intn(len(c.delays))]
	case 3:
		// A sum that rounds to a lane's time on some clocks and not others:
		// 0.1+0.2 against the 0.3 lane, and chains of the 0.1 lane.
		t = now + 0.1 + 0.2
	case 4:
		// Retune the last delay: events already on its old lane stay
		// there, later ones open or join another.
		c.delays[3] = []iontrap.Microseconds{1.5, 0.75, 0.3, 2}[c.rng.Intn(4)]
		fallthrough
	default:
		d := c.delays[c.rng.Intn(len(c.delays))]
		c.times = append(c.times, now+d)
		c.k.AfterFire(d, pri, h, idx)
		return
	}
	c.times = append(c.times, t)
	c.k.AtFire(t, pri, h, idx)
}

// The lanes and the heap must fire every event in the order one heap over
// all of them does, and report the same Stats, over random schedules that
// stop at a random event.  Between runs a kernel is reset, or released and
// re-acquired from the pool, or replaced, so a lane left over from the last
// run shows, and so do rings that wrap and grow.
func TestKernelMatchesHeapOrder(t *testing.T) {
	var k *Kernel
	for seed := int64(1); seed <= 500; seed++ {
		ref := &heapKernel{}
		want := newChaos(ref, seed)
		wantStats := ref.Run()
		switch {
		case k == nil || seed%4 == 0:
			if k != nil {
				k.Release()
			}
			k = AcquireKernel()
		case seed%4 == 1:
			// A new kernel's rings start empty, so its lanes grow while
			// they fire; a reused kernel's are already grown.
			k.Release()
			k = NewKernel()
		default:
			k.Reset()
		}
		got := newChaos(k, seed)
		gotStats := k.Run()
		if gotStats != wantStats || !slices.Equal(got.fired, want.fired) {
			i := 0
			for i < len(got.fired) && i < len(want.fired) && got.fired[i] == want.fired[i] {
				i++
			}
			t.Fatalf("seed %d: stats %+v, heap %+v; first difference at firing %d of %d/%d:\n got  %v\n want %v",
				seed, gotStats, wantStats, i, len(got.fired), len(want.fired),
				got.fired[i:min(i+3, len(got.fired))], want.fired[i:min(i+3, len(want.fired))])
		}
	}
	k.Release()
}

// The packed key must order events exactly as comparing time, priority and
// sequence one by one does: random pairs at equal and distinct times, both
// priorities, sequences up to 2⁶³−1, and NaN, ±Inf and −0 times.
func TestEventOrderMatchesFieldwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	times := []iontrap.Microseconds{
		0, iontrap.Microseconds(math.Copysign(0, -1)), 1, 1.5, -2,
		iontrap.Microseconds(math.NaN()), iontrap.Microseconds(math.Inf(1)), iontrap.Microseconds(math.Inf(-1)),
	}
	seqs := []uint64{0, 1, 2, 1<<62 - 1, 1 << 62, 1<<63 - 2, 1<<63 - 1}
	pick := func() refEvent {
		e := refEvent{pri: Priority(rng.Intn(2))}
		if rng.Intn(2) == 0 {
			e.at = times[rng.Intn(len(times))]
		} else {
			e.at = iontrap.Microseconds(rng.NormFloat64() * 10)
		}
		switch rng.Intn(3) {
		case 0:
			e.seq = seqs[rng.Intn(len(seqs))]
		case 1:
			e.seq = uint64(rng.Intn(16))
		default:
			e.seq = rng.Uint64() >> 1
		}
		return e
	}
	packed := func(e refEvent) event { return event{at: e.at, key: orderKey(e.pri, e.seq)} }
	for i := 0; i < 200_000; i++ {
		a, b := pick(), pick()
		switch i % 4 {
		case 0:
			b.at = a.at // equal times, NaN included
		case 1:
			b.at, b.pri = a.at, a.pri // only the sequences differ
		}
		pa, pb := packed(a), packed(b)
		if got, want := pa.before(&pb), a.before(&b); got != want {
			t.Fatalf("(%v, %d, %d) before (%v, %d, %d): packed %v, field by field %v",
				a.at, a.pri, a.seq, b.at, b.pri, b.seq, got, want)
		}
		if got, want := pb.before(&pa), b.before(&a); got != want {
			t.Fatalf("(%v, %d, %d) before (%v, %d, %d): packed %v, field by field %v",
				b.at, b.pri, b.seq, a.at, a.pri, a.seq, got, want)
		}
	}
}

// The queue's speed rests on its events being 32 bytes of plain data in at
// most four fields, which the compiler keeps in registers: a Handler, a
// slice or any other pointer put back into event fails this, and so does a
// fifth field, which measured as slow as the old 48-byte event even at 32
// bytes.
func TestEventLayout(t *testing.T) {
	typ := reflect.TypeFor[event]()
	if typ.Size() != 32 || typ.NumField() > 4 {
		t.Errorf("event is %d bytes in %d fields, want 32 in at most 4", typ.Size(), typ.NumField())
	}
	var plain func(reflect.Type) bool
	plain = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return true
		case reflect.Array:
			return plain(typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				if !plain(typ.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	for i := range typ.NumField() {
		if f := typ.Field(i); !plain(f.Type) {
			t.Errorf("event field %s is a %v, which holds a pointer", f.Name, f.Type)
		}
	}
}
