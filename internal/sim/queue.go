package sim

// task is one ready gate keyed by the time it became ready and a stable
// index (a gate number, or an offset into a flattened multi-circuit gate
// space).
type task struct {
	index int
	ready float64
}

// less orders by readiness time, then index.
func (a task) less(b task) bool {
	if a.ready != b.ready {
		return a.ready < b.ready
	}
	return a.index < b.index
}

// taskQueue is a binary min-heap of tasks ordered by (readiness time,
// index).  The explicit index tie-break makes the pop order fully
// deterministic.  Dataflow and ListSchedule are its only users: the
// event-driven replays and the closed-form oracles, which price gates
// through ListSchedule, issue in its one order, and that is load-bearing
// for their bit-for-bit parity.
type taskQueue struct{ items []task }

// len returns the number of queued tasks.
func (q *taskQueue) len() int { return len(q.items) }

// push adds a task.
func (q *taskQueue) push(t task) {
	q.items = append(q.items, t)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.items[i].less(q.items[parent]) {
			break
		}
		q.items[parent], q.items[i] = q.items[i], q.items[parent]
		i = parent
	}
}

// pop removes and returns the earliest task.
func (q *taskQueue) pop() task {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(q.items) && q.items[l].less(q.items[smallest]) {
			smallest = l
		}
		if r < len(q.items) && q.items[r].less(q.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
	return top
}
