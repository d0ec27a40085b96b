package obs

import (
	"testing"
	"time"
)

// TestHotPathZeroAlloc pins the overhead budget in doc.go: counter
// increments, gauge updates and histogram observations allocate nothing, so
// instrumenting the engine's per-job path and the server's per-request path
// cannot add GC pressure.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("qsd_alloc_total", "c", nil)
	g := r.Gauge("qsd_alloc_depth", "g", nil)
	h := r.Histogram("qsd_alloc_seconds", "h", nil)
	d := 123 * time.Microsecond

	cases := map[string]func(){
		"counter-inc":       func() { c.Inc() },
		"counter-add":       func() { c.Add(3) },
		"gauge-set":         func() { g.Set(7) },
		"histogram-observe": func() { h.Record(d) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestRegisteredLookupCheap documents that re-looking-up an existing series
// (the pattern for per-status counters resolved per request) allocates at
// most the label map — callers on hot paths should hold the returned
// pointer instead, which the engine and server do.
func TestRegisteredLookupCheap(t *testing.T) {
	r := NewRegistry()
	r.Counter("qsd_lookup_total", "c", nil)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Counter("qsd_lookup_total", "c", nil).Inc()
	}); allocs > 0 {
		t.Errorf("unlabeled re-lookup: %v allocs/op, want 0", allocs)
	}
}
