package sim

// Task is one unit of deferred work keyed by the time it becomes ready and a
// stable index (a gate number, or an offset into a flattened multi-circuit
// gate space).
type Task struct {
	Index int
	Ready float64
}

// less orders by readiness time, then index.
func (a Task) less(b Task) bool {
	if a.Ready != b.Ready {
		return a.Ready < b.Ready
	}
	return a.Index < b.Index
}

// TaskQueue is a binary min-heap of tasks ordered by (readiness time, index).
// The explicit index tie-break makes the pop order fully deterministic.  The
// closed-form oracles (microarch.SimulateClosedForm,
// schedule.SimulateWithThroughput) and the Dataflow dispatcher share this
// one queue, and that shared issue order is load-bearing for their
// bit-for-bit parity.
type TaskQueue struct{ items []Task }

// Len returns the number of queued tasks.
func (q *TaskQueue) Len() int { return len(q.items) }

// Push adds a task.
func (q *TaskQueue) Push(t Task) {
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

// Pop removes and returns the earliest task.
func (q *TaskQueue) Pop() Task {
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
