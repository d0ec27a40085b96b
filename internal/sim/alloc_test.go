package sim

import (
	"slices"
	"testing"

	"speedofdata/internal/iontrap"
)

// countingHandler reschedules itself a fixed number of times — the shape of
// every simulation driver's completion chain — at a computed time on the
// heap, or with after set, one microsecond later on a lane, as a producer
// ticks.
type countingHandler struct {
	k     *Kernel
	id    HandlerID // registered on k after each Reset
	after bool
	fired int
	limit int
}

func (h *countingHandler) Fire(idx int) {
	h.fired++
	if h.fired >= h.limit {
		return
	}
	if h.after {
		h.k.AfterFire(1, PriorityNormal, h.id, idx+1)
	} else {
		h.k.AtFire(h.k.Now()+1, PriorityNormal, h.id, idx+1)
	}
}

// The kernel's scheduling loop is the hot path of every event-driven run:
// once the heap, the lanes and the handler table have grown to their working
// size, Handle, AtFire, AfterFire and Run must not allocate per event.
func TestKernelSchedulingLoopAllocations(t *testing.T) {
	k := AcquireKernel()
	defer k.Release()
	for _, after := range []bool{false, true} {
		h := &countingHandler{k: k, after: after}
		// Warm up the heap's and the lanes' capacity.
		k.Reset()
		h.id, h.fired, h.limit = k.Handle(h), 0, 64
		for i := 0; i < 64; i++ {
			k.AtFire(iontrap.Microseconds(i), PriorityNormal, h.id, i)
		}
		k.Run()

		allocs := testing.AllocsPerRun(100, func() {
			k.Reset()
			h.id, h.fired, h.limit = k.Handle(h), 0, 256
			k.AtFire(0, PriorityNormal, h.id, 0)
			stats := k.Run()
			if stats.Events != 256 {
				t.Fatalf("events = %d, want 256", stats.Events)
			}
		})
		if allocs != 0 {
			t.Fatalf("kernel schedule/run allocations (AfterFire: %v) = %v per 256-event run, want 0", after, allocs)
		}
	}
}

// AcquireFire grants FIFO, each request the moment production covers the
// cumulative demand: demands 1, 2, 3, 4 against one unit per 2 µs are
// granted at 2, 6, 12 and 20 µs.
func TestAcquireFireGrantsAtCumulativeProduction(t *testing.T) {
	k := AcquireKernel()
	defer k.Release()
	r := NewResource(k, "anc", 0)
	p, err := newProducer(k, "factory", r, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	var times []iontrap.Microseconds
	var order []int
	h := k.Handle(fireFunc(func(idx int) {
		times = append(times, k.Now())
		order = append(order, idx)
		if len(times) == 4 {
			k.Stop()
		}
	}))
	for i := 0; i < 4; i++ {
		r.AcquireFire(float64(i+1), h, i)
	}
	k.Run()
	want := []iontrap.Microseconds{2, 6, 12, 20}
	if len(times) != len(want) {
		t.Fatalf("grants at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] || order[i] != i {
			t.Fatalf("grants %v at %v, want [0 1 2 3] at %v", order, times, want)
		}
	}
}

// fireFunc adapts a function to Handler for tests.
type fireFunc func(int)

func (f fireFunc) Fire(idx int) { f(idx) }

// at schedules fn at time t as a handler of its own.
func at(k *Kernel, t iontrap.Microseconds, pri Priority, fn func()) {
	k.AtFire(t, pri, k.Handle(fireFunc(func(int) { fn() })), 0)
}

// acquire requests n units from r and calls fn once they are granted.
func acquire(r *Resource, n float64, fn func()) {
	r.AcquireFire(n, r.k.Handle(fireFunc(func(int) { fn() })), 0)
}

// A drained queue must reuse its capacity, and Reset must produce a
// resource/producer indistinguishable from a fresh one.
func TestResetKeepsCapacityAndSemantics(t *testing.T) {
	q := &taskQueue{}
	for i := 0; i < 100; i++ {
		q.push(task{index: i, ready: float64(100 - i)})
	}
	for q.len() > 0 {
		q.pop()
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 100; i++ {
			q.push(task{index: i, ready: float64(100 - i)})
		}
		last := -1.0
		for q.len() > 0 {
			item := q.pop()
			if item.ready < last {
				t.Fatal("pop order broken on a reused queue")
			}
			last = item.ready
		}
	})
	if allocs != 0 {
		t.Fatalf("reused queue allocations = %v per run, want 0", allocs)
	}

	k := NewKernel()
	r := NewResource(k, "a", 2)
	r.Put(2)
	acquire(r, 1, func() {})
	r.Reset(k, "b", 5)
	if r.Name != "b" || r.level != 0 || r.Consumed() != 0 || r.HighWater() != 0 {
		t.Fatalf("reset resource carries old state: %+v", r)
	}
	if got := r.Put(10); got != 5 {
		t.Fatalf("reset resource accepted %v, want the new capacity 5", got)
	}

	// Stall a producer on the full buffer, then reset it mid-stall.
	p, err := newProducer(k, "p", r, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	at(k, 3.5, PriorityNormal, k.Stop)
	k.Run()
	if p.StallTime() == 0 {
		t.Fatal("producer did not stall on the full buffer")
	}
	if err := p.Reset(k, "p2", r, 2); err != nil {
		t.Fatal(err)
	}
	if p.held != 0 || p.stalled || p.StallTime() != 0 || p.Name != "p2" {
		t.Fatalf("reset producer carries old state: %+v", p)
	}
	if err := p.Reset(k, "bad", r, 0); err == nil {
		t.Fatal("reset with zero rate must fail")
	}
}

// A released kernel must come back observationally fresh: no pending
// event on the heap, no lane open, no event left in the ring of a lane an
// earlier run opened, and no handler registered or still held by the
// table's backing array.
func TestKernelPoolReuseIsFresh(t *testing.T) {
	k := AcquireKernel()
	h := &recordingHandler{}
	id := k.Handle(h)
	at(k, 5, PriorityNormal, func() {
		k.AfterFire(1, PriorityNormal, id, 1)
		k.AtFire(k.Now(), PriorityLate, id, 2)
		k.AtFire(k.Now()+2, PriorityNormal, id, 3)
		k.Stop()
	})
	k.Run()
	if len(k.lanes) != 2 || len(k.heap) != 1 || len(k.handlers) != 2 {
		t.Fatalf("stopped run left %d lanes, %d heap events and %d handlers, want 2, 1 and 2",
			len(k.lanes), len(k.heap), len(k.handlers))
	}
	k.Release()
	k2 := AcquireKernel()
	defer k2.Release()
	if k2.Now() != 0 || len(k2.heap) != 0 || len(k2.lanes) != 0 || len(k2.handlers) != 0 {
		t.Fatalf("pooled kernel not reset: now=%v heap=%d lanes=%d handlers=%d",
			k2.Now(), len(k2.heap), len(k2.lanes), len(k2.handlers))
	}
	for _, l := range k2.lanes[:cap(k2.lanes)] {
		if l.n != 0 || slices.ContainsFunc(l.ring, func(e event) bool { return e != event{} }) {
			t.Fatalf("pooled kernel keeps a lane event: %d pending in ring %v", l.n, l.ring)
		}
	}
	if i := slices.IndexFunc(k2.handlers[:cap(k2.handlers)], func(h Handler) bool { return h != nil }); i >= 0 {
		t.Fatalf("pooled kernel's handler table still holds %v at %d", k2.handlers[:cap(k2.handlers)][i], i)
	}
	if len(h.fired) != 0 {
		t.Fatalf("dropped events fired: %v", h.fired)
	}
}

// consumer draws one unit from a Resource every microsecond: after each
// grant it waits on the lane its producer ticks on, then draws again.
type consumer struct {
	r      *Resource
	id     HandlerID // registered by Start
	grants int
}

// consumer event payloads.
const (
	consumerDraw = iota
	consumerGranted
)

func (c *consumer) Start() {
	c.id = c.r.k.Handle(c)
	c.Fire(consumerDraw)
}

func (c *consumer) Fire(idx int) {
	if idx == consumerDraw {
		c.r.AcquireFire(1, c.id, consumerGranted)
		return
	}
	c.grants++
	c.r.k.AfterFire(1, PriorityNormal, c.id, consumerDraw)
}

// A lane that never drains — its producer and its consumer always have an
// event pending on it — must reuse its ring, not grow with every event: a
// run ten times longer ends with the same lane capacity.  Every tick here is
// queued, none fires in place: when a tick fires, the consumer's draw at the
// same time is still queued behind it on the lane, so the next tick is never
// the next event popped.
func TestProducerLaneCapacityIsSteady(t *testing.T) {
	capacity := func(ticks int) (int, int) {
		k := NewKernel()
		r := NewResource(k, "buf", 4)
		p, err := newProducer(k, "p", r, 1) // one tick per µs
		if err != nil {
			t.Fatal(err)
		}
		c := &consumer{r: r}
		p.Start()
		c.Start()
		at(k, iontrap.Microseconds(ticks)+0.5, PriorityNormal, k.Stop)
		k.Run()
		if r.Consumed() != float64(ticks) || r.level != 0 || c.grants != ticks {
			t.Fatalf("%d µs: consumed %v with %v left buffered in %d grants, want %d units in %d grants",
				ticks, r.Consumed(), r.level, c.grants, ticks, ticks)
		}
		total := 0
		for _, l := range k.lanes {
			total += len(l.ring)
		}
		return len(k.lanes), total
	}
	lanes, short := capacity(10_000)
	lanes2, long := capacity(100_000)
	if lanes != 2 || lanes2 != 2 || short != long {
		t.Fatalf("lanes %d and %d, ring capacity %d after 10^4 ticks and %d after 10^5, want 2 lanes and equal capacity",
			lanes, lanes2, short, long)
	}
}

// BenchmarkKernelScheduleLoop measures the closure-free schedule/run cycle
// (the per-event cost every simulation driver pays): a completion chain on
// the heap, and a producer feeding a consumer through a buffer, whose ticks
// and grants ride lanes.  Each run registers its handlers afresh, as the
// replays do.  The CI perf smoke runs it at one iteration to keep both
// paths exercised.
func BenchmarkKernelScheduleLoop(b *testing.B) {
	k := AcquireKernel()
	defer k.Release()
	b.Run("completions", func(b *testing.B) {
		h := &countingHandler{k: k}
		for i := 0; i < b.N; i++ {
			k.Reset()
			h.id, h.fired, h.limit = k.Handle(h), 0, 4096
			k.AtFire(0, PriorityNormal, h.id, 0)
			if stats := k.Run(); stats.Events != 4096 {
				b.Fatalf("events = %d", stats.Events)
			}
		}
		b.ReportMetric(4096*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
	b.Run("producer", func(b *testing.B) {
		r, p, c := new(Resource), new(Producer), new(consumer)
		events := 0
		for i := 0; i < b.N; i++ {
			k.Reset()
			r.Reset(k, "buf", 4)
			if err := p.Reset(k, "p", r, 1); err != nil {
				b.Fatal(err)
			}
			*c = consumer{r: r}
			p.Start()
			c.Start()
			at(k, 1024.5, PriorityNormal, k.Stop)
			events += k.Run().Events
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	})
}
