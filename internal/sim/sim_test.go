package sim

import (
	"errors"
	"math"
	"testing"

	"speedofdata/internal/iontrap"
)

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
	at(k, 10, PriorityNormal, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past should panic")
			}
		}()
		at(k, 5, PriorityNormal, func() {})
	})
	k.Run()
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
	if k.Pending() != 1 {
		t.Errorf("pending = %d, want 1", k.Pending())
	}
}

func TestFluidSourceMatchesTokenBucket(t *testing.T) {
	s, err := NewFluidSource(0.5) // 0.5 ancillae per µs
	if err != nil {
		t.Fatal(err)
	}
	// The closed-form token bucket returns consumed/rate after accumulating.
	if got := s.AvailableAt(2); got != 4 {
		t.Errorf("first acquire at %v, want 4", got)
	}
	if got := s.AvailableAt(3); got != 10 {
		t.Errorf("second acquire at %v, want 10", got)
	}
	if s.Consumed() != 5 {
		t.Errorf("consumed = %v, want 5", s.Consumed())
	}
	// An infinite rate grants immediately.
	inf, err := NewFluidSource(math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := inf.AvailableAt(100); got != 0 {
		t.Errorf("infinite-rate source granted at %v, want 0", got)
	}
}

func TestZeroRateIsTypedError(t *testing.T) {
	if _, err := NewFluidSource(0); !errors.Is(err, ErrZeroRate) {
		t.Errorf("zero-rate fluid source error = %v, want ErrZeroRate", err)
	}
	if _, err := NewFluidSource(-1); !errors.Is(err, ErrZeroRate) {
		t.Errorf("negative-rate fluid source error = %v, want ErrZeroRate", err)
	}
	k := NewKernel()
	out := NewResource(k, "buf", 4)
	if _, err := NewProducer(k, "p", out, 0, 1); !errors.Is(err, ErrZeroRate) {
		t.Errorf("zero-rate producer error = %v, want ErrZeroRate", err)
	}
	if _, err := NewProducer(k, "p", out, 1, 0); err == nil {
		t.Error("zero-batch producer should be rejected")
	}
}

func TestResourceGrantsFIFO(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "anc", 0) // unbounded
	var grants []string
	at(k, 0, PriorityNormal, func() {
		acquire(r, 2, func() { grants = append(grants, "first") })
		acquire(r, 1, func() { grants = append(grants, "second") })
	})
	at(k, 5, PriorityNormal, func() { r.Put(2) })  // completes only the first
	at(k, 10, PriorityNormal, func() { r.Put(5) }) // completes the second, rest buffered
	k.Run()
	if len(grants) != 2 || grants[0] != "first" || grants[1] != "second" {
		t.Fatalf("grants = %v", grants)
	}
	if r.Level() != 4 {
		t.Errorf("leftover level = %v, want 4", r.Level())
	}
	if r.Consumed() != 3 || r.Produced() != 7 {
		t.Errorf("consumed %v / produced %v, want 3 / 7", r.Consumed(), r.Produced())
	}
	// The first request waited from t=0 to t=5, the second to t=10.
	if r.WaitTime() != 15 {
		t.Errorf("wait time = %v, want 15", r.WaitTime())
	}
}

func TestAcquireLargerThanCapacityDrainsIncrementally(t *testing.T) {
	// Demand 6 against a buffer of 2: deliveries stream through the buffer
	// as they are produced, so the request still completes.
	k := NewKernel()
	r := NewResource(k, "anc", 2)
	p, err := NewProducer(k, "factory", r, 1.0, 1) // 1 per µs
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
	p, err := NewProducer(k, "factory", r, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var level float64
	at(k, 0, PriorityNormal, func() { p.Start() })
	// By t=3 the buffer is full; the producer holds its 4th item and stalls.
	// At t=10 a consumer takes 2, unblocking production.
	at(k, 10, PriorityNormal, func() { acquire(r, 2, func() {}) })
	at(k, 20, PriorityNormal, func() {
		level = r.Level()
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
	if p.Emitted() < 5 {
		t.Errorf("emitted = %v, want production to have resumed", p.Emitted())
	}
}

func TestDeterministicRepeatedRuns(t *testing.T) {
	run := func() (float64, iontrap.Microseconds, int) {
		k := NewKernel()
		r := NewResource(k, "anc", 4)
		p, err := NewProducer(k, "factory", r, 0.7, 1)
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
		return r.Consumed(), stats.End, stats.Events
	}
	c1, e1, n1 := run()
	c2, e2, n2 := run()
	if c1 != c2 || e1 != e2 || n1 != n2 {
		t.Errorf("runs differ: (%v,%v,%v) vs (%v,%v,%v)", c1, e1, n1, c2, e2, n2)
	}
}
