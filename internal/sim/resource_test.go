package sim

import (
	"reflect"
	"testing"
)

// recordingHandler notes the payloads delivered to it, in order.
type recordingHandler struct{ fired []int }

func (h *recordingHandler) Fire(idx int) { h.fired = append(h.fired, idx) }

// rewaiter registers itself again every time it fires, as a producer still
// blocked on a full buffer does.
type rewaiter struct {
	r     *Resource
	id    HandlerID
	fired []int
}

func (w *rewaiter) Fire(idx int) {
	w.fired = append(w.fired, idx)
	w.r.OnSpaceFire(w.id, idx)
}

// Waiters fire FIFO, one that registers again while the list fires waits
// for the next drain, and the request and waiter arrays are reused: a
// steady grant-and-stall cycle allocates nothing.
func TestResourceWaitersFIFOAndReused(t *testing.T) {
	k := NewKernel()
	buf := NewResource(k, "buf", 1)
	w := &rewaiter{r: buf}
	w.id = k.Handle(w)
	buf.OnSpaceFire(w.id, 1)
	buf.OnSpaceFire(w.id, 2)
	h := &recordingHandler{}
	id := k.Handle(h)
	cycle := func() {
		buf.Put(1)
		buf.AcquireFire(1, id, 0)
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
