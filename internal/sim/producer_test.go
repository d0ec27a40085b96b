package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"speedofdata/internal/iontrap"
)

// eagerProducer is Producer with every completion queued: each tick goes
// through the kernel's queue, as ticks did before they could fire in place.
// It is the oracle TestProducerMatchesEagerOracle holds Producer to.
type eagerProducer struct {
	k        *Kernel
	id       HandlerID
	out      *Resource
	interval iontrap.Microseconds

	held      float64
	stalled   bool
	stalledAt iontrap.Microseconds
	stallUs   iontrap.Microseconds
}

func newEagerProducer(k *Kernel, out *Resource, ratePerUs float64) *eagerProducer {
	p := &eagerProducer{k: k, out: out, interval: iontrap.Microseconds(1 / ratePerUs)}
	p.id = k.Handle(p)
	return p
}

func (p *eagerProducer) Fire(idx int) {
	if idx == producerTick {
		p.tick()
	} else {
		p.wake()
	}
}

func (p *eagerProducer) Start() { p.k.AfterFire(p.interval, PriorityNormal, p.id, producerTick) }

func (p *eagerProducer) StallTime() iontrap.Microseconds {
	if p.stalled {
		return p.stallUs + p.k.Now() - p.stalledAt
	}
	return p.stallUs
}

func (p *eagerProducer) tick() {
	p.held++
	p.flush()
}

func (p *eagerProducer) flush() {
	p.held -= p.out.Put(p.held)
	if p.held > grantEps {
		if !p.stalled {
			p.stalled = true
			p.stalledAt = p.k.Now()
		}
		p.out.OnSpaceFire(p.id, producerWake)
		return
	}
	p.held = 0
	if p.stalled {
		p.stalled = false
		p.stallUs += p.k.Now() - p.stalledAt
	}
	p.k.AfterFire(p.interval, PriorityNormal, p.id, producerTick)
}

func (p *eagerProducer) wake() { p.flush() }

// source is what a tickWorkload drives of a producer.
type source interface {
	Start()
	StallTime() iontrap.Microseconds
}

// tickCounter stands in for a producer in its kernel's handler table and
// counts the ticks the queue delivers to it.
type tickCounter struct {
	h     Handler
	ticks *int
}

func (c tickCounter) Fire(idx int) {
	if idx == producerTick {
		*c.ticks++
	}
	c.h.Fire(idx)
}

// tickFiring is what one workload event observed: when it fired, its
// payload, the requests still open, and every buffer's level and consumed
// units and every source's stall time at that moment.
type tickFiring struct {
	at       iontrap.Microseconds
	idx      int
	open     int
	levels   [3]float64
	consumed [3]float64
	stalls   [4]iontrap.Microseconds
}

// tickWorkload payloads other than a request's own, which is its
// non-negative serial number.
const (
	workloadTimer = -1 - iota
	workloadStop
)

// tickWorkload drives producers feeding buffers through a random schedule:
// whole, fractional and zero demands and timers from events at both
// priorities, many of them on tick times, and a stop at a horizon or at a
// random event.  It records what each of its events observes.  Its choices
// depend only on its seed and on the order its events fire in, so two runs
// that fire the same order build the same schedule, and the first
// difference shows.
type tickWorkload struct {
	k      *Kernel
	rng    *rand.Rand
	id     HandlerID
	bufs   []*Resource
	srcs   []source
	rates  []float64 // the rates sources run at
	open   int       // requests not yet granted
	next   int       // the next request's serial number
	budget int       // actions still to take
	stopAt int       // Stop at this many firings; 0 runs to the horizon
	queued int       // ticks the queue delivered
	log    []tickFiring
}

// newTickWorkload builds the seed's buffers and sources on k, the sources
// made by mk, and schedules the first events; Run then runs it.
func newTickWorkload(k *Kernel, seed int64, mk func(k *Kernel, out *Resource, ratePerUs float64) (source, HandlerID)) *tickWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &tickWorkload{k: k, rng: rng}
	w.id = k.Handle(w)
	// A small rate menu, so sources often share a cadence (and a lane);
	// intervals of 1, 2 and 0.5 µs put ticks on integer times.
	menu := []float64{1, 0.5, 2, 0.3, 1.0 / 3, 0.7, 4}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		w.rates = append(w.rates, menu[rng.Intn(len(menu))])
	}
	capacities := []float64{0, 0, 0.5, 1, 2, 2.5, 4, 7.5}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		w.bufs = append(w.bufs, NewResource(k, "buf", capacities[rng.Intn(len(capacities))]))
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		s, id := mk(k, w.bufs[rng.Intn(len(w.bufs))], w.rates[rng.Intn(len(w.rates))])
		k.handlers[id] = tickCounter{h: k.handlers[id], ticks: &w.queued}
		w.srcs = append(w.srcs, s)
	}
	w.budget = 20 + rng.Intn(300)
	if rng.Intn(3) == 0 {
		w.stopAt = 1 + rng.Intn(2*w.budget)
	}
	for _, s := range w.srcs {
		s.Start()
	}
	for n := 1 + rng.Intn(6); n > 0; n-- {
		w.act()
	}
	k.AtFire(iontrap.Microseconds(5+rng.Intn(120)), Priority(rng.Intn(2)), w.id, workloadStop)
	return w
}

func (w *tickWorkload) Fire(idx int) {
	switch {
	case idx >= 0:
		w.open--
	case idx == workloadStop:
		w.k.Stop()
	}
	w.record(idx)
	if len(w.log) == w.stopAt {
		w.k.Stop()
	}
	for n := w.rng.Intn(3); n > 0; n-- {
		w.act()
	}
}

// record logs one observation.
func (w *tickWorkload) record(idx int) {
	f := tickFiring{at: w.k.Now(), idx: idx, open: w.open}
	for i, b := range w.bufs {
		f.levels[i], f.consumed[i] = b.level, b.Consumed()
	}
	for i, s := range w.srcs {
		f.stalls[i] = s.StallTime()
	}
	w.log = append(w.log, f)
}

// act takes one random action, unless the budget is spent.
func (w *tickWorkload) act() {
	if w.budget == 0 {
		return
	}
	w.budget--
	rng, k := w.rng, w.k
	pri := Priority(rng.Intn(2))
	switch rng.Intn(12) {
	case 0, 1, 2, 3, 4, 5:
		// A demand: whole, fractional or zero.
		demands := []float64{1, 1, 2, 3, 0.5, 1.5, 0.25, 0}
		w.bufs[rng.Intn(len(w.bufs))].AcquireFire(demands[rng.Intn(len(demands))], w.id, w.next)
		w.open++
		w.next++
	case 6, 7, 8:
		// One interval of a rate later: on a tick time when this event fired
		// on one, and on that cadence's lane at normal priority.
		k.AfterFire(iontrap.Microseconds(1/w.rates[rng.Intn(len(w.rates))]), pri, w.id, workloadTimer)
	case 9, 10:
		// A whole number of microseconds later, where the integer cadences
		// tick, or now.
		k.AtFire(k.Now()+iontrap.Microseconds(rng.Intn(4)), pri, w.id, workloadTimer)
	case 11:
		// A time off every cadence.
		k.AtFire(k.Now()+iontrap.Microseconds(rng.Float64()*3), pri, w.id, workloadTimer)
	}
}

// tickOutcome is everything a workload run shows after its end.
type tickOutcome struct {
	stats     Stats
	highWater [3]float64
	consumed  [3]float64
	levels    [3]float64
	stalls    [4]iontrap.Microseconds
}

func (w *tickWorkload) outcome(stats Stats) tickOutcome {
	o := tickOutcome{stats: stats}
	for i, b := range w.bufs {
		o.highWater[i], o.consumed[i], o.levels[i] = b.HighWater(), b.Consumed(), b.level
	}
	for i, s := range w.srcs {
		o.stalls[i] = s.StallTime()
	}
	return o
}

// A producer that fires its next tick in place, when the kernel would pop it
// next anyway, must be indistinguishable from one that queues every tick:
// over random workloads, the same firing log (with every level, consumed
// total and stall time each event saw), Stats, high-water marks, consumed
// units, levels and stall times, compared with ==.  Ticks must fire both in
// place and from the queue across the workloads, or the comparison shows
// nothing.
func TestProducerMatchesEagerOracle(t *testing.T) {
	eager := func(k *Kernel, out *Resource, rate float64) (source, HandlerID) {
		p := newEagerProducer(k, out, rate)
		return p, p.id
	}
	inPlace := func(k *Kernel, out *Resource, rate float64) (source, HandlerID) {
		p, err := newProducer(k, "p", out, rate)
		if err != nil {
			t.Fatal(err)
		}
		return p, p.id
	}
	ticks, queued := 0, 0
	for seed := int64(1); seed <= 2000; seed++ {
		wk := NewKernel()
		want := newTickWorkload(wk, seed, eager)
		wantOut := want.outcome(wk.Run())

		k := AcquireKernel()
		got := newTickWorkload(k, seed, inPlace)
		gotOut := got.outcome(k.Run())
		k.Release()

		if gotOut != wantOut || !slices.Equal(got.log, want.log) {
			i := 0
			for i < len(got.log) && i < len(want.log) && got.log[i] == want.log[i] {
				i++
			}
			t.Fatalf("seed %d: outcome %+v, eager %+v; first difference at firing %d of %d/%d:\n got  %+v\n want %+v",
				seed, gotOut, wantOut, i, len(got.log), len(want.log),
				got.log[i:min(i+2, len(got.log))], want.log[i:min(i+2, len(want.log))])
		}
		ticks += want.queued
		queued += got.queued
	}
	if queued == 0 || queued == ticks {
		t.Fatalf("%d of %d ticks queued: the workloads must fire ticks both in place and from the queue", queued, ticks)
	}
	t.Logf("%d of %d ticks fired in place", ticks-queued, ticks)
}

// The in-place check must weigh the key, not the time alone: a normal event
// already queued at the tick's time was scheduled first and fires first, a
// late one fires after, and so does one at a later time.
func TestFireInPlaceWeighsTheKey(t *testing.T) {
	for _, tc := range []struct {
		name    string
		queue   func(k *Kernel, id HandlerID)
		inPlace bool
	}{
		{"empty queue", func(*Kernel, HandlerID) {}, true},
		{"normal event on the heap at the tick time", func(k *Kernel, id HandlerID) { k.AtFire(2, PriorityNormal, id, 0) }, false},
		{"normal event on a lane at the tick time", func(k *Kernel, id HandlerID) { k.AfterFire(1, PriorityNormal, id, 0) }, false},
		{"late event on the heap at the tick time", func(k *Kernel, id HandlerID) { k.AtFire(2, PriorityLate, id, 0) }, true},
		{"late event on a lane at the tick time", func(k *Kernel, id HandlerID) { k.AfterFire(1, PriorityLate, id, 0) }, true},
		{"event before the tick time", func(k *Kernel, id HandlerID) { k.AtFire(1.5, PriorityLate, id, 0) }, false},
		{"event after the tick time", func(k *Kernel, id HandlerID) { k.AtFire(2.5, PriorityNormal, id, 0) }, true},
	} {
		k := NewKernel()
		h := &recordingHandler{}
		id := k.Handle(h)
		checked := false
		k.AtFire(1, PriorityNormal, k.Handle(fireFunc(func(int) {
			tc.queue(k, id)
			seq, stats := k.seq, k.stats
			if got := k.fireInPlace(1); got != tc.inPlace {
				t.Errorf("%s: fireInPlace = %v, want %v", tc.name, got, tc.inPlace)
			} else if got {
				// Fired as Run would: the next insertion number taken, the
				// clock and Stats at the tick.
				if k.seq != seq+1 || k.Now() != 2 || k.stats != (Stats{Events: stats.Events + 1, End: 2}) {
					t.Errorf("%s: in place, seq %d, now %v, stats %+v; want %d, 2, %d events ending at 2",
						tc.name, k.seq, k.Now(), k.stats, seq+1, stats.Events+1)
				}
			} else if k.seq != seq || k.Now() != 1 || k.stats != stats {
				t.Errorf("%s: a refused check moved the kernel", tc.name)
			}
			checked = true
		})), 0)
		k.Run()
		if !checked {
			t.Fatalf("%s: the check never ran", tc.name)
		}
	}
	// A stopped run, a negative delay and a NaN one never fire in place.
	k := NewKernel()
	for _, d := range []iontrap.Microseconds{-1, iontrap.Microseconds(math.NaN())} {
		if k.fireInPlace(d) {
			t.Errorf("fireInPlace(%v) on an empty queue = true, want false", d)
		}
	}
	k.Stop()
	if k.fireInPlace(1) {
		t.Error("fireInPlace on a stopped kernel = true, want false")
	}
}
