package sim

import (
	"errors"
	"reflect"
	"testing"

	"speedofdata/internal/iontrap"
)

// recordingHandler notes the payloads delivered to it, in order.
type recordingHandler struct{ fired []int }

func (h *recordingHandler) Fire(idx int) { h.fired = append(h.fired, idx) }

// Halt stops production permanently: ticks already scheduled emit nothing,
// no further ticks are scheduled, and a stall in progress stops accruing.
func TestProducerHalt(t *testing.T) {
	k := NewKernel()
	buf := NewResource(k, "buf", 0)
	p, err := NewProducer(k, "p", buf, 1, 1) // one unit per µs
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	at(k, 3.5, PriorityNormal, p.Halt)
	at(k, 10, PriorityNormal, func() { k.Stop() })
	k.Run()
	if got := p.Emitted(); got != 3 {
		t.Errorf("halted producer emitted %v, want 3 (ticks at 1, 2, 3)", got)
	}
	if got := buf.Level(); got != 3 {
		t.Errorf("buffer level %v, want 3", got)
	}
}

// Halting a producer stalled on a full buffer closes the stall and keeps it
// down even when space frees afterwards.
func TestProducerHaltWhileStalled(t *testing.T) {
	k := NewKernel()
	buf := NewResource(k, "buf", 1)
	p, err := NewProducer(k, "p", buf, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	// Tick at 1 fills the one-slot buffer; tick at 2 stalls.
	at(k, 5, PriorityNormal, p.Halt)
	at(k, 6, PriorityNormal, func() { acquire(buf, 1, func() {}) }) // frees space, wakes the producer
	at(k, 8, PriorityNormal, func() { k.Stop() })
	k.Run()
	if got := p.StallTime(); got != 3 {
		t.Errorf("stall time %v, want 3 (stalled 2..5)", got)
	}
	if got := p.Emitted(); got != 2 {
		t.Errorf("halted producer emitted %v after wake, want 2", got)
	}
}

// SetRate retunes the cadence for ticks scheduled from now on; the tick in
// flight still lands on the old interval.
func TestProducerSetRate(t *testing.T) {
	k := NewKernel()
	buf := NewResource(k, "buf", 0)
	p, err := NewProducer(k, "p", buf, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	var levels []float64
	at(k, 2.5, PriorityNormal, func() {
		if err := p.SetRate(0.25); err != nil { // one unit per 4 µs
			t.Error(err)
		}
	})
	for _, when := range []iontrap.Microseconds{3.5, 7.5} {
		at(k, when, PriorityLate, func() { levels = append(levels, buf.Level()) })
	}
	at(k, 8, PriorityNormal, func() { k.Stop() })
	k.Run()
	// Ticks at 1, 2, 3 on the old cadence (the 3-tick was scheduled before
	// the change), then 3+4=7 on the new one.
	if len(levels) != 2 || levels[0] != 3 || levels[1] != 4 {
		t.Errorf("levels = %v, want [3 4]", levels)
	}
	if err := p.SetRate(0); !errors.Is(err, ErrZeroRate) {
		t.Errorf("zero rate error = %v, want ErrZeroRate", err)
	}
	if err := p.SetRate(-2); !errors.Is(err, ErrZeroRate) {
		t.Errorf("negative rate error = %v, want ErrZeroRate", err)
	}
}

// CancelAcquireFire withdraws exactly the identified pending request,
// preserves FIFO order for the rest, and reports false once the demand has
// already been delivered.
func TestCancelAcquireFire(t *testing.T) {
	k := NewKernel()
	buf := NewResource(k, "buf", 0)
	h := &recordingHandler{}
	buf.AcquireFire(1, h, 1)
	buf.AcquireFire(1, h, 2)
	buf.AcquireFire(1, h, 3)
	if !buf.CancelAcquireFire(h, 2) {
		t.Fatal("pending request not found")
	}
	if buf.CancelAcquireFire(h, 2) {
		t.Fatal("cancelled request found twice")
	}
	at(k, 1, PriorityNormal, func() { buf.Put(2) })
	k.Run()
	if len(h.fired) != 2 || h.fired[0] != 1 || h.fired[1] != 3 {
		t.Errorf("fired = %v, want [1 3] (request 2 cancelled, FIFO kept)", h.fired)
	}
	// A delivered request can no longer be cancelled: the grant stands.
	buf.AcquireFire(1, h, 4)
	at(k, 2, PriorityNormal, func() {
		buf.Put(1)
		if buf.CancelAcquireFire(h, 4) {
			t.Error("cancel succeeded after delivery")
		}
	})
	k.Run()
	if len(h.fired) != 3 || h.fired[2] != 4 {
		t.Errorf("fired = %v, want the delivered grant to stand", h.fired)
	}
}

// rewaiter registers itself again every time it fires, as a producer still
// blocked on a full buffer does.
type rewaiter struct {
	r     *Resource
	fired []int
}

func (w *rewaiter) Fire(idx int) {
	w.fired = append(w.fired, idx)
	w.r.OnSpaceFire(w, idx)
}

// Waiters fire FIFO, one that registers again while the list fires waits
// for the next drain, and the request and waiter arrays are reused: a
// steady grant-and-stall cycle allocates nothing.
func TestResourceWaitersFIFOAndReused(t *testing.T) {
	k := NewKernel()
	buf := NewResource(k, "buf", 1)
	w := &rewaiter{r: buf}
	buf.OnSpaceFire(w, 1)
	buf.OnSpaceFire(w, 2)
	h := &recordingHandler{}
	cycle := func() {
		buf.Put(1)
		buf.AcquireFire(1, h, 0)
		k.Run()
	}
	cycle()
	cycle()
	if want := []int{1, 2, 1, 2}; !reflect.DeepEqual(w.fired, want) || len(h.fired) != 2 {
		t.Fatalf("waiters fired %v and grants %v, want %v and two grants", w.fired, h.fired, want)
	}
	w.fired = make([]int, 0, 1024)
	h.fired = make([]int, 0, 1024)
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("grant-and-stall cycle allocations = %v, want 0", allocs)
	}
}
