package main

import (
	"testing"
	"time"
)

// TestTimeOpsEndsOnFailures checks that operations that never match the
// reference still end the timed loop, and count as failed.
func TestTimeOpsEndsOnFailures(t *testing.T) {
	out := newOutcome()
	done := make(chan []float64, 1)
	go func() {
		done <- timeOps(20*time.Millisecond, out, func() error { return errMismatch })
	}()
	select {
	case lat := <-done:
		if len(lat) < minTimedOps || out.failed != out.attempted || len(lat) != out.attempted {
			t.Errorf("attempted=%d failed=%d latencies=%d", out.attempted, out.failed, len(lat))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed loop did not end when every operation failed")
	}
}

// TestColdRequestsCapacity checks that a request count the mix cannot make
// distinct is refused rather than drawn forever, and that the default one
// gives distinct URLs in the same experiment order for every seed.
func TestColdRequestsCapacity(t *testing.T) {
	sz := fullSize(time.Second)
	if _, err := coldRequests(1, 20000, sz); err == nil {
		t.Error("20000 requests exceed the mix's distinct contention URLs, but were drawn")
	}
	a, err := coldRequests(1, 500, sz)
	if err != nil {
		t.Fatal(err)
	}
	b, err := coldRequests(2, 500, sz)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range a {
		if seen[a[i].path] {
			t.Fatalf("URL %s drawn twice", a[i].path)
		}
		seen[a[i].path] = true
		if a[i].id != b[i].id {
			t.Fatalf("request %d is %s for seed 1 and %s for seed 2", i, a[i].id, b[i].id)
		}
	}
}
