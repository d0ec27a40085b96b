package sim

import (
	"testing"

	"speedofdata/internal/iontrap"
)

// countingHandler reschedules itself a fixed number of times — the shape of
// every simulation driver's completion chain.
type countingHandler struct {
	k     *Kernel
	fired int
	limit int
}

func (h *countingHandler) Fire(idx int) {
	h.fired++
	if h.fired < h.limit {
		h.k.AtFire(h.k.Now()+1, PriorityNormal, h, idx+1)
	}
}

// The kernel's scheduling loop is the hot path of every event-driven run:
// once the event slice has grown to its working size, AtFire/Run must not
// allocate per event.
func TestKernelSchedulingLoopAllocations(t *testing.T) {
	k := AcquireKernel()
	defer k.Release()
	h := &countingHandler{k: k, limit: 1 << 30}
	// Warm up the event-slice capacity.
	k.Reset()
	h.fired, h.limit = 0, 64
	for i := 0; i < 64; i++ {
		k.AtFire(iontrap.Microseconds(i), PriorityNormal, h, i)
	}
	k.Run()

	allocs := testing.AllocsPerRun(100, func() {
		k.Reset()
		h.fired, h.limit = 0, 256
		k.AtFire(0, PriorityNormal, h, 0)
		stats := k.Run()
		if stats.Events != 256 {
			t.Fatalf("events = %d, want 256", stats.Events)
		}
	})
	if allocs != 0 {
		t.Fatalf("kernel schedule/run allocations = %v per 256-event run, want 0", allocs)
	}
}

// AcquireFire grants FIFO, each request the moment production covers the
// cumulative demand: demands 1, 2, 3, 4 against one unit per 2 µs are
// granted at 2, 6, 12 and 20 µs.
func TestAcquireFireGrantsAtCumulativeProduction(t *testing.T) {
	k := AcquireKernel()
	defer k.Release()
	r := NewResource(k, "anc", 0)
	p, err := NewProducer(k, "factory", r, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	var times []iontrap.Microseconds
	var order []int
	for i := 0; i < 4; i++ {
		r.AcquireFire(float64(i+1), fireFunc(func(idx int) {
			times = append(times, k.Now())
			order = append(order, idx)
			if len(times) == 4 {
				k.Stop()
			}
		}), i)
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

// at schedules fn at time t through the Handler API.
func at(k *Kernel, t iontrap.Microseconds, pri Priority, fn func()) {
	k.AtFire(t, pri, fireFunc(func(int) { fn() }), 0)
}

// acquire requests n units from r and calls fn once they are granted.
func acquire(r *Resource, n float64, fn func()) {
	r.AcquireFire(n, fireFunc(func(int) { fn() }), 0)
}

// A drained queue must reuse its capacity, and Reset must produce a
// resource/producer indistinguishable from a fresh one.
func TestResetKeepsCapacityAndSemantics(t *testing.T) {
	q := &TaskQueue{}
	for i := 0; i < 100; i++ {
		q.Push(Task{Index: i, Ready: float64(100 - i)})
	}
	for q.Len() > 0 {
		q.Pop()
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 100; i++ {
			q.Push(Task{Index: i, Ready: float64(100 - i)})
		}
		last := -1.0
		for q.Len() > 0 {
			item := q.Pop()
			if item.Ready < last {
				t.Fatal("pop order broken on a reused queue")
			}
			last = item.Ready
		}
	})
	if allocs != 0 {
		t.Fatalf("reused queue allocations = %v per run, want 0", allocs)
	}

	k := NewKernel()
	r := NewResource(k, "a", 2)
	r.Put(2)
	r.Reset(k, "b", 5)
	if r.Name != "b" || r.Level() != 0 || r.Produced() != 0 || r.HighWater() != 0 {
		t.Fatalf("reset resource carries old state: %+v", r)
	}
	if got := r.Put(10); got != 5 {
		t.Fatalf("reset resource accepted %v, want the new capacity 5", got)
	}

	p, err := NewProducer(k, "p", r, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.Reset(k, "p2", r, 2, 1); err != nil {
		t.Fatal(err)
	}
	if p.Emitted() != 0 || p.StallTime() != 0 || p.Name != "p2" {
		t.Fatalf("reset producer carries old state: %+v", p)
	}
	if err := p.Reset(k, "bad", r, 0, 1); err == nil {
		t.Fatal("reset with zero rate must fail")
	}
}

// A released kernel must come back observationally fresh.
func TestKernelPoolReuseIsFresh(t *testing.T) {
	k := AcquireKernel()
	at(k, 5, PriorityNormal, func() {})
	k.Run()
	k.Release()
	k2 := AcquireKernel()
	defer k2.Release()
	if k2.Now() != 0 || k2.Pending() != 0 {
		t.Fatalf("pooled kernel not reset: now=%v pending=%d", k2.Now(), k2.Pending())
	}
}

// BenchmarkKernelScheduleLoop measures the closure-free schedule/run cycle
// (the per-event cost every simulation driver pays); the CI perf smoke runs
// it at one iteration to keep the kernel hot path exercised.
func BenchmarkKernelScheduleLoop(b *testing.B) {
	k := AcquireKernel()
	defer k.Release()
	h := &countingHandler{k: k}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Reset()
		h.fired, h.limit = 0, 4096
		k.AtFire(0, PriorityNormal, h, 0)
		if stats := k.Run(); stats.Events != 4096 {
			b.Fatalf("events = %d", stats.Events)
		}
	}
	b.ReportMetric(4096*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}
