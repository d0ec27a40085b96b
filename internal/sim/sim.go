// Package sim is the deterministic discrete-event simulation kernel behind
// the event-driven execution models: a monotonic event queue keyed by
// iontrap.Microseconds with stable tie-breaking, the resource abstractions
// (finite ancilla buffers, rate-limited producers, fluid sources) that the
// factory, microarch, schedule and network layers plug into, and Dataflow,
// the one dispatcher that replays circuits' dataflow graphs for microarch,
// schedule and network.
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

// Handler receives kernel events.  Every event is a Handler plus a small
// integer payload — typically a gate index — passed through AtFire or
// AfterFire, so scheduling allocates nothing: the event holds an interface
// already in hand plus an int, where a closure would be allocated per event
// to capture the same state.
type Handler interface {
	Fire(idx int)
}

// ErrZeroRate reports a producer or fluid source configured with a
// non-positive production rate: nothing would ever become available, so the
// configuration is rejected up front instead of letting +Inf availability
// times propagate into results (and from there into JSON encoders).
var ErrZeroRate = errors.New("sim: ancilla production rate is not positive")

// Priority orders events that share a timestamp.  Lower priorities fire
// first; insertion order breaks remaining ties.
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

// event is one scheduled Handler call with its payload.
type event struct {
	at  iontrap.Microseconds
	pri Priority
	seq uint64
	h   Handler
	idx int
}

// before is the heap ordering: time, then priority, then insertion sequence.
// The sequence component makes tie-breaking stable, which is what makes whole
// runs deterministic.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.pri != o.pri {
		return e.pri < o.pri
	}
	return e.seq < o.seq
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
type Kernel struct {
	now     iontrap.Microseconds
	seq     uint64
	events  []event
	stopped bool
	stats   Stats
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() iontrap.Microseconds { return k.now }

// AtFire schedules h.Fire(idx) at absolute time t.  Scheduling into the
// past is a programming error and panics: a discrete-event clock is
// monotonic.
func (k *Kernel) AtFire(t iontrap.Microseconds, pri Priority, h Handler, idx int) {
	if t < k.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before current time %v", t, k.now))
	}
	k.events = append(k.events, event{at: t, pri: pri, seq: k.seq, h: h, idx: idx})
	k.seq++
	k.up(len(k.events) - 1)
}

// AfterFire schedules h.Fire(idx) d microseconds from now.
func (k *Kernel) AfterFire(d iontrap.Microseconds, pri Priority, h Handler, idx int) {
	k.AtFire(k.now+d, pri, h, idx)
}

// Stop halts the run after the current event; remaining events are dropped.
// Drivers call it once their workload completes so idle producers do not
// keep ticking.
func (k *Kernel) Stop() { k.stopped = true }

// Run fires events in (time, priority, insertion) order until the queue
// drains or Stop is called, and returns the run statistics.
func (k *Kernel) Run() Stats {
	for !k.stopped && len(k.events) > 0 {
		e := k.pop()
		k.now = e.at
		k.stats.Events++
		k.stats.End = e.at
		e.h.Fire(e.idx)
	}
	// One atomic add per run (not per event) keeps the loop's zero-overhead
	// guarantee while feeding the process-wide event counter.
	eventsFired.Add(int64(k.stats.Events))
	runsDone.Add(1)
	return k.stats
}

// Pending returns the number of scheduled events not yet fired.
func (k *Kernel) Pending() int { return len(k.events) }

// Reset returns the kernel to time zero with an empty queue, keeping the
// event slice's backing capacity so a reused kernel schedules without
// reallocating.  Outstanding events are dropped (their handlers released).
func (k *Kernel) Reset() {
	for i := range k.events {
		k.events[i] = event{}
	}
	k.events = k.events[:0]
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

// up restores the heap property from leaf i.
func (k *Kernel) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if k.events[parent].before(k.events[i]) {
			break
		}
		k.events[parent], k.events[i] = k.events[i], k.events[parent]
		i = parent
	}
}

// pop removes and returns the earliest event.
func (k *Kernel) pop() event {
	top := k.events[0]
	last := len(k.events) - 1
	k.events[0] = k.events[last]
	k.events[last] = event{} // release the handler
	k.events = k.events[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(k.events) && k.events[l].before(k.events[smallest]) {
			smallest = l
		}
		if r < len(k.events) && k.events[r].before(k.events[smallest]) {
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
