package sim

import (
	"fmt"

	"speedofdata/internal/iontrap"
)

// grantEps absorbs floating-point residue when deciding whether a request's
// remaining demand has been fully delivered.
const grantEps = 1e-9

// FluidSource is the infinite-buffer token-bucket ancilla source of the
// closed-form analyses: production accumulates continuously at a steady rate,
// so the time at which a cumulative demand of c ancillae is available is
// c/rate.  It exists so the event-driven simulators can reproduce the
// analytical results bit for bit when buffers are configured infinite — the
// parity oracle for every finite-buffer extension.
type FluidSource struct {
	ratePerUs float64
	consumed  float64
}

// Reset starts the source afresh at ratePerUs ancillae per microsecond, so
// one value serves run after run; a source is usable only once Reset.  A
// non-positive rate returns ErrZeroRate (an infinite rate is allowed and
// grants everything immediately).
func (s *FluidSource) Reset(ratePerUs float64) error {
	if !(ratePerUs > 0) {
		return fmt.Errorf("fluid source rate %v: %w", ratePerUs, ErrZeroRate)
	}
	*s = FluidSource{ratePerUs: ratePerUs}
	return nil
}

// AvailableAt reserves n more ancillae and returns the earliest time (in
// microseconds since the run started) by which the cumulative reservation has
// been produced.  The arithmetic — accumulate, then divide once — is exactly
// the closed-form token bucket's, which is what makes infinite-buffer
// event-driven runs bit-identical to the analytical model.
func (s *FluidSource) AvailableAt(n float64) float64 {
	s.consumed += n
	return s.consumed / s.ratePerUs
}

// request is one pending AcquireFire: demand is delivered incrementally as
// the resource is replenished (ancillae are handed over the moment they
// exist, so a demand larger than the buffer capacity still completes).
type request struct {
	remaining float64
	h         HandlerID
	idx       int
}

// waiter is one registered OnSpaceFire call.
type waiter struct {
	h   HandlerID
	idx int
}

// Resource is a finite-buffer store of a fungible quantity (encoded
// ancillae, physical qubits between factory stages).  Producers deposit with
// Put and stall when the buffer is full; consumers AcquireFire a demand and
// are granted FIFO as the quantity becomes available.  All hand-offs happen
// through kernel events, so interleavings are deterministic.  The request
// and waiter lists reuse their backing arrays, so a buffered run in steady
// state grants and stalls without allocating.
type Resource struct {
	// Name labels the resource in diagnostics.
	Name string

	k        *Kernel
	capacity float64 // <= 0 means unbounded
	level    float64
	pending  []request // pending[head:] wait, oldest first
	head     int
	waiters  []waiter // producers blocked on a full buffer
	spare    []waiter // the other waiter array, swapped in while one fires

	consumed  float64
	highWater float64
}

// NewResource builds a buffer with the given capacity; capacity <= 0 means
// unbounded.
func NewResource(k *Kernel, name string, capacity float64) *Resource {
	return &Resource{Name: name, k: k, capacity: capacity}
}

// HighWater returns the largest buffered level observed.
func (r *Resource) HighWater() float64 { return r.highWater }

// Consumed returns the cumulative quantity granted to consumers.
func (r *Resource) Consumed() float64 { return r.consumed }

// AcquireFire requests n units: the Fire(idx) of handler h fires (as a
// normal-priority kernel event) once the full demand has been delivered.
// Requests are served first come, first served, draining the buffer
// incrementally so demands larger than the capacity still complete.  A zero
// demand is granted immediately.
func (r *Resource) AcquireFire(n float64, h HandlerID, idx int) {
	if n <= grantEps {
		r.k.AtFire(r.k.Now(), PriorityNormal, h, idx)
		return
	}
	if r.head > 0 && len(r.pending) == cap(r.pending) {
		// Reuse the front the granted requests freed before growing.
		m := copy(r.pending, r.pending[r.head:])
		r.pending, r.head = r.pending[:m], 0
	}
	r.pending = append(r.pending, request{remaining: n, h: h, idx: idx})
	r.drain()
}

// Put deposits up to n units, feeding pending requests directly and then the
// buffer up to its capacity.  It returns the quantity accepted; producers
// hold the remainder and re-Put when OnSpaceFire signals room.
func (r *Resource) Put(n float64) float64 {
	if n <= 0 {
		return 0
	}
	accepted := 0.0
	// Pending consumers take delivery directly, bypassing the buffer.
	for n > grantEps && r.head < len(r.pending) {
		take := n
		if rem := r.pending[r.head].remaining; take > rem {
			take = rem
		}
		n -= take
		accepted += take
		r.deliver(take)
	}
	if n > grantEps {
		room := n
		if r.capacity > 0 {
			room = r.capacity - r.level
			if room > n {
				room = n
			}
			if room < 0 {
				room = 0
			}
		}
		r.level += room
		accepted += room
		if r.level > r.highWater {
			r.highWater = r.level
		}
	}
	return accepted
}

// deliver hands take units to the head request, completing it when its
// demand is met.
func (r *Resource) deliver(take float64) {
	head := &r.pending[r.head]
	head.remaining -= take
	r.consumed += take
	if head.remaining <= grantEps {
		done := *head
		if r.head++; r.head == len(r.pending) {
			r.pending, r.head = r.pending[:0], 0
		}
		r.k.AtFire(r.k.Now(), PriorityNormal, done.h, done.idx)
	}
}

// drain moves buffered quantity into pending requests and wakes stalled
// producers if space was freed.  The woken list is swapped for the spare
// array first, so a producer that stalls again while the list fires waits
// for the next drain.
func (r *Resource) drain() {
	freed := false
	for r.level > grantEps && r.head < len(r.pending) {
		take := r.level
		if rem := r.pending[r.head].remaining; take > rem {
			take = rem
		}
		r.level -= take
		freed = true
		r.deliver(take)
	}
	if freed && len(r.waiters) > 0 {
		ws := r.waiters
		r.waiters, r.spare = r.spare[:0], nil
		for _, w := range ws {
			r.k.handlers[w.h].Fire(w.idx)
		}
		r.spare = ws[:0]
	}
}

// OnSpaceFire registers a one-shot Fire(idx) of handler h, invoked the next
// time buffered quantity is consumed (i.e. space frees up).  Producers use
// it to resume after stalling on a full buffer.
func (r *Resource) OnSpaceFire(h HandlerID, idx int) {
	r.waiters = append(r.waiters, waiter{h: h, idx: idx})
}

// Reset re-initialises the resource for a new run on kernel k, keeping the
// pending/waiter slices' backing capacity.
func (r *Resource) Reset(k *Kernel, name string, capacity float64) {
	*r = Resource{Name: name, k: k, capacity: capacity,
		pending: r.pending[:0], waiters: r.waiters[:0], spare: r.spare[:0]}
}

// Producer deposits one unit into a Resource at a steady cadence, stalling
// (and accounting the stall) whenever the buffer is full.  It models an
// ancilla factory's output side: with one ancilla every 1/rate
// microseconds, the k-th ancilla is ready at k/rate — the discrete
// counterpart of FluidSource — but unlike the fluid model production stops
// when there is nowhere to put the product.  Each completion is one kernel
// event; through stretches where nothing else is due, the next one fires in
// place instead of through the queue (see tick).
type Producer struct {
	// Name labels the producer in diagnostics.
	Name string

	k        *Kernel
	id       HandlerID // the producer on k
	out      *Resource
	interval iontrap.Microseconds

	held      float64
	stalled   bool
	stalledAt iontrap.Microseconds
	stallUs   iontrap.Microseconds
}

// Producer event payloads for its Handler.
const (
	producerTick = iota
	producerWake
)

// Fire implements Handler: production completions and buffer-space wakeups
// schedule the producer itself with a payload instead of a bound-method
// closure per event.
func (p *Producer) Fire(idx int) {
	if idx == producerTick {
		p.tick()
	} else {
		p.wake()
	}
}

// Start schedules the first completion one interval from now.
func (p *Producer) Start() { p.k.AfterFire(p.interval, PriorityNormal, p.id, producerTick) }

// Reset re-initialises the producer for a new run on kernel k, keeping its
// identity, and registers it as one of k's handlers for the run.
func (p *Producer) Reset(k *Kernel, name string, out *Resource, ratePerUs float64) error {
	if !(ratePerUs > 0) {
		return fmt.Errorf("producer %q rate %v: %w", name, ratePerUs, ErrZeroRate)
	}
	*p = Producer{Name: name, k: k, id: k.Handle(p), out: out,
		interval: iontrap.Microseconds(1 / ratePerUs)}
	return nil
}

// StallTime returns the total time the producer spent blocked on a full
// buffer, including a stall still in progress at the current kernel time (so
// runs that end mid-stall account the trailing segment).
func (p *Producer) StallTime() iontrap.Microseconds {
	if p.stalled {
		return p.stallUs + p.k.Now() - p.stalledAt
	}
	return p.stallUs
}

// tick is one production completion, and the ones after it that fire in
// place: while a completion schedules nothing (its unit went to the buffer,
// not to a waiting request) and the next one would be the next event the
// kernel fires anyway, that one fires here without a trip through the
// queue (Kernel.fireInPlace).  Otherwise the next completion is queued.
func (p *Producer) tick() {
	for {
		seq := p.k.seq
		p.held++
		if !p.deposit() {
			return
		}
		if p.k.seq != seq || !p.k.fireInPlace(p.interval) {
			p.k.AfterFire(p.interval, PriorityNormal, p.id, producerTick)
			return
		}
	}
}

// deposit puts held product into the buffer and reports whether all of it
// went in; if the buffer rejects part of it the producer stalls until space
// frees.
func (p *Producer) deposit() bool {
	p.held -= p.out.Put(p.held)
	if p.held > grantEps {
		if !p.stalled {
			p.stalled = true
			p.stalledAt = p.k.Now()
		}
		p.out.OnSpaceFire(p.id, producerWake)
		return false
	}
	p.held = 0
	if p.stalled {
		p.stalled = false
		p.stallUs += p.k.Now() - p.stalledAt
	}
	return true
}

// wake retries the deposit after space freed up and, once it goes in,
// queues the next completion.  A wake fires inside another handler's event
// (the drain of a consumer's request), so that completion is always queued.
func (p *Producer) wake() {
	if p.deposit() {
		p.k.AfterFire(p.interval, PriorityNormal, p.id, producerTick)
	}
}
