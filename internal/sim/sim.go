// Package sim is the deterministic discrete-event simulation kernel behind
// the event-driven execution models.  It holds the event queue, keyed by
// iontrap.Microseconds with stable tie-breaking; the resource abstractions
// (finite ancilla buffers, rate-limited producers, fluid sources) that the
// factory, microarch, schedule and network layers plug into; and Dataflow,
// the one dispatcher that replays circuits' dataflow graphs for microarch,
// schedule and network, with ListSchedule, its kernel-free form, through
// which the closed-form oracles price gates in the same issue order.
//
// The queue is a set of lanes and a heap.  A lane is the FIFO of the events
// scheduled with one fixed delay at one priority: producer ticks, and
// grants and dispatches at the current time.  The heap holds the events at
// computed times: gate completions, network arrivals and horizons.
// A queued event is 32 bytes of plain data: its time, one key packing its
// priority and insertion sequence, its payload, and the ID of its handler in
// the run's handler table (Kernel.Handle).  A producer's next tick skips the
// queue when it would be the next event fired anyway: it fires in place,
// under the key it would have had, so it counts in Stats all the same.
//
// The closed-form analyses of Sections 3-5 treat ancilla generation as an
// infinitely buffered token bucket; this kernel removes that assumption so
// the reproduction can model finite buffers, factory pipeline stalls, bursty
// demand and co-scheduled benchmarks contending for one factory.  Runs are
// fully deterministic: events at equal times fire in (priority, insertion)
// order, and no randomness is used anywhere in the kernel.
package sim

import (
	"errors"
	"fmt"
	"sync"

	"speedofdata/internal/iontrap"
)

// Handler receives kernel events.  An owner registers itself once per run
// with Kernel.Handle and schedules by the HandlerID it gets back plus a
// small integer payload — typically a gate index — through AtFire or
// AfterFire, so scheduling allocates nothing and a queued event is plain
// data: the ID and an int, where a closure would be allocated per event to
// capture the same state.
type Handler interface {
	Fire(idx int)
}

// HandlerID names a Handler in one run's handler table; see Kernel.Handle.
type HandlerID int32

// ErrZeroRate reports a producer or fluid source configured with a
// non-positive production rate: nothing would ever become available, so the
// configuration is rejected up front instead of letting +Inf availability
// times propagate into results (and from there into JSON encoders).
var ErrZeroRate = errors.New("sim: ancilla production rate is not positive")

// Priority orders events that share a timestamp.  Lower priorities fire
// first; insertion order breaks remaining ties.  The two constants below are
// its only values.
type Priority int

const (
	// PriorityNormal is for ordinary events: gate completions, producer
	// ticks, resource grants.
	PriorityNormal Priority = iota
	// PriorityLate events fire after every normal event at the same
	// timestamp.  Dispatchers use it so they observe the full batch of
	// same-time completions before issuing new work.
	PriorityLate
)

// event is one scheduled Handler call with its payload.  It is 32 bytes of
// plain data in four fields, and the queue's speed rests on that: the
// compiler can hold a struct of at most four words in at most four fields
// in registers, so the lanes and the heap copy and compare events without
// round trips through memory, and storing one needs no write barrier.  The
// Handler itself (two words) or a fifth field would undo it; TestEventLayout
// pins the layout.
type event struct {
	at  iontrap.Microseconds
	key uint64 // orderKey(priority, insertion sequence)
	idx int
	h   HandlerID
}

// orderKey packs an event's priority and insertion sequence into one key
// whose order is (priority, sequence): the priority in bit 63, the sequence
// below it.  A run would need 2⁶³ events to reach the priority bit.
func orderKey(pri Priority, seq uint64) uint64 { return uint64(pri)<<63 | seq }

// before is the event order: time, then priority, then insertion sequence,
// the last two as one key.  The sequence makes tie-breaking stable, which is
// what makes whole runs deterministic, and since no two events share a
// sequence number it also settles every tie between a lane head and the
// heap top.  A NaN time is before nothing and nothing is before it, as when
// the fields were compared one by one.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.key < o.key)
}

// lane is the FIFO of a run's events scheduled with one fixed delay at one
// priority: AfterFire(delay, pri), and AtFire at the current time as delay
// zero.  The clock never runs backwards and adding a fixed delay in floating
// point is monotone, so the events arrive in before order and the head is
// the lane's earliest.  The events sit in a ring whose length is a power of
// two, so a lane that never drains (a producer whose ticks keep meeting
// other events) reuses its slots instead of growing.
type lane struct {
	delay iontrap.Microseconds
	pri   Priority
	ring  []event // pending: ring[head], ..., ring[(head+n-1)&(len(ring)-1)]
	head  int
	n     int
}

// push appends e, doubling the ring when it is full.
func (l *lane) push(e event) {
	if l.n == len(l.ring) {
		ring := make([]event, max(8, 2*len(l.ring)))
		m := copy(ring, l.ring[l.head:])
		copy(ring[m:], l.ring[:l.head])
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = e
	l.n++
}

// pop removes and returns the head.
func (l *lane) pop() event {
	e := l.ring[l.head]
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return e
}

// Stats summarises one kernel run.
type Stats struct {
	// Events is the number of events fired.
	Events int
	// End is the simulated time of the last fired event.
	End iontrap.Microseconds
}

// Kernel is the discrete-event simulator: a monotonic clock and an event
// queue.  Build a kernel, schedule initial events, then Run it to exhaustion
// (or until Stop).
//
// The queue is a set of lanes, one per (delay, priority) pair the run has
// scheduled with, plus a binary heap of the events at computed times.  Each
// source is sorted, so firing the least of the lane heads and the heap top
// under before gives exactly the order of one heap over every event.  A run
// opens a handful of lanes (one per producer rate, and one per priority for
// same-time events), so a linear scan over their heads is enough.  Events
// name their handlers by index into the run's handler table, which Reset
// clears.  An event a handler schedules as its last act, when it would be
// the next one popped, may fire in place instead (fireInPlace): producers
// tick that way through stretches where nothing else is due, so a producer
// does not always have a tick queued.
type Kernel struct {
	now      iontrap.Microseconds
	seq      uint64
	heap     []event   // a binary min-heap under before
	lanes    []lane    // this run's; lanes[len:cap] keep earlier runs' rings
	handlers []Handler // this run's, by HandlerID
	stopped  bool
	stats    Stats
}

// NewKernel returns an empty kernel at time zero, with room for the pending
// events, the lanes and the handlers of a small replay, so a kernel the pool
// has to allocate (the race detector makes it drop kernels at random) costs
// a few allocations, not one per doubling of its queue.
func NewKernel() *Kernel {
	return &Kernel{heap: make([]event, 0, 64), lanes: make([]lane, 0, 4), handlers: make([]Handler, 0, 16)}
}

// Now returns the current simulated time.
func (k *Kernel) Now() iontrap.Microseconds { return k.now }

// Handle registers h for this run and returns the ID that AtFire, AfterFire
// and a Resource's AcquireFire and OnSpaceFire take in its place.  The ID is valid until Reset; an owner registers once per run,
// where it binds to the run's kernel.
func (k *Kernel) Handle(h Handler) HandlerID {
	k.handlers = append(k.handlers, h)
	return HandlerID(len(k.handlers) - 1)
}

// AtFire schedules the Fire(idx) of handler h at absolute time t.
// Scheduling into the past is a programming error and panics: a
// discrete-event clock is monotonic.
func (k *Kernel) AtFire(t iontrap.Microseconds, pri Priority, h HandlerID, idx int) {
	if t == k.now {
		k.lane(0, pri).push(event{at: t, key: k.next(pri), h: h, idx: idx})
		return
	}
	if t < k.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before current time %v", t, k.now))
	}
	k.heap = append(k.heap, event{at: t, key: k.next(pri), h: h, idx: idx})
	k.up(len(k.heap) - 1)
}

// AfterFire schedules the Fire(idx) of handler h d microseconds from now.
func (k *Kernel) AfterFire(d iontrap.Microseconds, pri Priority, h HandlerID, idx int) {
	if !(d >= 0) {
		// A negative delay panics in AtFire (unless now+d rounds to now),
		// and a NaN one keeps the heap's handling of NaN times.
		k.AtFire(k.now+d, pri, h, idx)
		return
	}
	k.lane(d, pri).push(event{at: k.now + d, key: k.next(pri), h: h, idx: idx})
}

// next returns the order key of an event scheduled now at pri and advances
// the insertion sequence.  A priority other than the two constants is a
// programming error and panics, since it would not pack into one bit.
func (k *Kernel) next(pri Priority) uint64 {
	if uint(pri) > uint(PriorityLate) {
		panic("sim: undefined event priority")
	}
	key := orderKey(pri, k.seq)
	k.seq++
	return key
}

// lane returns the run's lane for delay d at priority pri, opening it (on a
// ring an earlier run left, when there is one) the first time.
func (k *Kernel) lane(d iontrap.Microseconds, pri Priority) *lane {
	for i := range k.lanes {
		if l := &k.lanes[i]; l.delay == d && l.pri == pri {
			return l
		}
	}
	if len(k.lanes) < cap(k.lanes) {
		k.lanes = k.lanes[:len(k.lanes)+1]
	} else {
		k.lanes = append(k.lanes, lane{})
	}
	l := &k.lanes[len(k.lanes)-1]
	l.delay, l.pri = d, pri
	return l
}

// fireInPlace reports whether an event scheduled now, d microseconds ahead
// at normal priority, would be the very next event Run fires: the run is
// not stopped, d is a non-negative number, and the event, with the key the
// next insertion number gives it, is before the heap top and every lane
// head.  If so it fires the event here instead: it takes the insertion
// number and sets the clock and Stats as Run would, and the caller then does
// what the event's handler would do.  The caller must be the handler of the
// event Run fired last, at the end of its Fire, where Run would pop next.
// Since the event fired is the one Run would pop, under the same key, the
// fired order, Stats and every output are those of queueing it.
func (k *Kernel) fireInPlace(d iontrap.Microseconds) bool {
	if k.stopped || !(d >= 0) {
		return false
	}
	e := event{at: k.now + d, key: orderKey(PriorityNormal, k.seq)}
	if len(k.heap) > 0 && !e.before(&k.heap[0]) {
		return false
	}
	for i := range k.lanes {
		if l := &k.lanes[i]; l.n > 0 && !e.before(&l.ring[l.head]) {
			return false
		}
	}
	k.seq++
	k.now = e.at
	k.stats.Events++
	k.stats.End = e.at
	return true
}

// Stop halts the run after the current event; remaining events are dropped.
// Drivers call it once their workload completes so idle producers do not
// keep ticking.
func (k *Kernel) Stop() { k.stopped = true }

// Run fires events in (time, priority, insertion) order until the queue
// drains or Stop is called, and returns the run statistics.
func (k *Kernel) Run() Stats {
	for !k.stopped {
		e, ok := k.pop()
		if !ok {
			break
		}
		k.now = e.at
		k.stats.Events++
		k.stats.End = e.at
		k.handlers[e.h].Fire(e.idx)
	}
	// One atomic add per run (not per event) keeps the loop's zero-overhead
	// guarantee while feeding the process-wide event counter.
	eventsFired.Add(int64(k.stats.Events))
	runsDone.Add(1)
	return k.stats
}

// Reset returns the kernel to time zero with an empty queue.  Outstanding
// events are dropped and so are the lanes, so a reused kernel scans only the
// lanes its next run opens, and the handler table is emptied, releasing the
// handlers and invalidating their IDs; the heap's, the rings' and the
// table's backing storage is kept, so the next run schedules without
// reallocating.
func (k *Kernel) Reset() {
	clear(k.heap)
	k.heap = k.heap[:0]
	for i := range k.lanes {
		l := &k.lanes[i]
		clear(l.ring)
		l.head, l.n = 0, 0
	}
	k.lanes = k.lanes[:0]
	clear(k.handlers)
	k.handlers = k.handlers[:0]
	k.now, k.seq, k.stopped, k.stats = 0, 0, false, Stats{}
}

// kernelPool recycles kernels (and their event-queue capacity) across
// simulation runs; see AcquireKernel.
var kernelPool = sync.Pool{New: func() any {
	kernelNews.Add(1)
	return NewKernel()
}}

// AcquireKernel returns a reset kernel, reusing pooled backing storage when
// available.  Release it after the run so the next simulation skips the
// queue's growth allocations.  Pooling never affects results: a reset
// kernel is observationally identical to a new one.
func AcquireKernel() *Kernel {
	kernelAcquires.Add(1)
	return kernelPool.Get().(*Kernel)
}

// Release resets the kernel and returns it to the pool.  The caller must
// not use it afterwards.
func (k *Kernel) Release() {
	k.Reset()
	kernelPool.Put(k)
}

// pop removes and returns the earliest pending event, the least of the heap
// top and the lane heads, or reports that none is left.
func (k *Kernel) pop() (event, bool) {
	var first *event
	from := -1 // the lane holding first; -1 is the heap
	if len(k.heap) > 0 {
		first = &k.heap[0]
	}
	for i := range k.lanes {
		l := &k.lanes[i]
		if l.n == 0 {
			continue
		}
		if head := &l.ring[l.head]; first == nil || head.before(first) {
			first, from = head, i
		}
	}
	switch {
	case first == nil:
		return event{}, false
	case from >= 0:
		return k.lanes[from].pop(), true
	}
	return k.popHeap(), true
}

// up restores the heap property from leaf i.
func (k *Kernel) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if k.heap[parent].before(&k.heap[i]) {
			break
		}
		k.heap[parent], k.heap[i] = k.heap[i], k.heap[parent]
		i = parent
	}
}

// popHeap removes and returns the heap's earliest event.
func (k *Kernel) popHeap() event {
	top := k.heap[0]
	last := len(k.heap) - 1
	k.heap[0] = k.heap[last]
	k.heap = k.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(k.heap) && k.heap[l].before(&k.heap[smallest]) {
			smallest = l
		}
		if r < len(k.heap) && k.heap[r].before(&k.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		k.heap[i], k.heap[smallest] = k.heap[smallest], k.heap[i]
		i = smallest
	}
	return top
}
