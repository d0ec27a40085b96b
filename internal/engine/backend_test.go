package engine

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// mapBackend is an in-memory CacheBackend standing in for internal/store.
type mapBackend struct {
	mu   sync.Mutex
	m    map[string]any
	gets atomic.Int64
	puts atomic.Int64
}

func newMapBackend() *mapBackend { return &mapBackend{m: make(map[string]any)} }

func (b *mapBackend) Get(key string) (any, bool) {
	b.gets.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.m[key]
	return v, ok
}

func (b *mapBackend) Put(key string, v any) {
	b.puts.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[key] = v
}

// valueJobs returns one job per key, each returning val and counting its
// runs in computes.
func valueJobs(computes *atomic.Int64, val int, keys ...string) []Job[int] {
	jobs := make([]Job[int], len(keys))
	for i, k := range keys {
		jobs[i] = Job[int]{Key: k, Run: func(context.Context, *rand.Rand) (int, error) {
			computes.Add(1)
			return val, nil
		}}
	}
	return jobs
}

// TestLRUEvictsColdestKey fills the memory tier past its limit and checks
// that the entry evicted is the least recently used one, not an arbitrary
// victim.
func TestLRUEvictsColdestKey(t *testing.T) {
	eng := New(1)
	eng.CacheLimit = 2
	var computes atomic.Int64
	run := func(keys ...string) {
		t.Helper()
		if _, err := Run(context.Background(), eng, valueJobs(&computes, 1, keys...)); err != nil {
			t.Fatal(err)
		}
	}
	run("a", "b")
	run("a") // touch a so b becomes the eviction candidate
	run("c")
	if n := computes.Load(); n != 3 {
		t.Fatalf("%d computes before the probe, want 3 (a hit on a)", n)
	}
	run("a", "c")
	if n := computes.Load(); n != 3 {
		t.Fatalf("a or c recomputed (%d computes); want both kept", n)
	}
	run("b")
	if n := computes.Load(); n != 4 {
		t.Fatalf("b served without computing (%d computes); want it evicted as LRU", n)
	}
}

// TestBackendWriteThroughAndWarmStart computes through one engine, then
// checks a second engine sharing the backend serves the result without
// recomputing — the warm-restart path in miniature.
func TestBackendWriteThroughAndWarmStart(t *testing.T) {
	backend := newMapBackend()
	var computes atomic.Int64
	job := Job[int]{
		Key: Fingerprint("warm", 1),
		Run: func(context.Context, *rand.Rand) (int, error) {
			computes.Add(1)
			return 42, nil
		},
	}

	eng1 := New(1)
	eng1.Backend = backend
	got, err := Run(context.Background(), eng1, []Job[int]{job})
	if err != nil || got[0] != 42 {
		t.Fatalf("first run = %v, %v", got, err)
	}
	if backend.puts.Load() != 1 {
		t.Fatalf("backend puts = %d, want 1 (write-through on compute)", backend.puts.Load())
	}

	// A fresh engine (cold memory tier) resolves the same key from the
	// backend without running the job.
	eng2 := New(1)
	eng2.Backend = backend
	got, err = Run(context.Background(), eng2, []Job[int]{job})
	if err != nil || got[0] != 42 {
		t.Fatalf("second run = %v, %v", got, err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("job computed %d times, want 1 (backend hit)", n)
	}
	tiers := eng2.Tiers()
	if tiers.StoreHits != 1 || tiers.MemoryHits != 0 {
		t.Fatalf("tiers = %+v, want exactly one store hit", tiers)
	}

	// The backend hit was promoted: the next lookup is a memory hit and the
	// backend is not consulted again.
	getsBefore := backend.gets.Load()
	got, err = Run(context.Background(), eng2, []Job[int]{job})
	if err != nil || got[0] != 42 {
		t.Fatalf("third run = %v, %v", got, err)
	}
	if backend.gets.Load() != getsBefore {
		t.Fatal("backend consulted on a memory hit; want promotion to skip it")
	}
	if tiers := eng2.Tiers(); tiers.MemoryHits != 1 {
		t.Fatalf("tiers = %+v, want a memory hit after promotion", tiers)
	}
}

// TestBackendPromotionDoesNotWriteBack a store hit must not be re-Put: the
// record is already on disk.
func TestBackendPromotionDoesNotWriteBack(t *testing.T) {
	backend := newMapBackend()
	backend.m["k"] = 7
	eng := New(1)
	eng.Backend = backend
	var computes atomic.Int64
	got, err := Run(context.Background(), eng, valueJobs(&computes, 0, "k"))
	if err != nil || got[0] != 7 || computes.Load() != 0 {
		t.Fatalf("Run = %v, %v after %d computes; want the backend's 7", got, err, computes.Load())
	}
	if backend.puts.Load() != 0 {
		t.Fatalf("backend puts = %d, want 0 on promotion", backend.puts.Load())
	}
}

// TestBackendRecordOfAnotherTypeMisses a stored record whose type is not the
// job's result type (a build whose stage returned another type wrote it)
// counts as a store miss: the job computes and replaces the record.
func TestBackendRecordOfAnotherTypeMisses(t *testing.T) {
	backend := newMapBackend()
	backend.m["k"] = "stale"
	eng := New(1)
	eng.Backend = backend
	var computes atomic.Int64
	got, err := Run(context.Background(), eng, valueJobs(&computes, 5, "k"))
	if err != nil || got[0] != 5 || computes.Load() != 1 {
		t.Fatalf("Run = %v, %v after %d computes; want 5 computed once", got, err, computes.Load())
	}
	if v := backend.m["k"]; v != 5 {
		t.Fatalf("backend record = %v, want the computed 5", v)
	}
	if tiers := eng.Tiers(); tiers.StoreHits != 0 || tiers.StoreMisses != 1 {
		t.Fatalf("tiers = %+v, want one store miss", tiers)
	}
}

// TestTiersStats exercises the counter plumbing behind /v1/healthz.
func TestTiersStats(t *testing.T) {
	backend := newMapBackend()
	backend.m["disk-only"] = 2
	eng := New(1)
	eng.Backend = backend
	var computes atomic.Int64
	for _, keys := range [][]string{
		{"k"},         // memory miss + store miss, computed and written through
		{"k"},         // memory hit
		{"disk-only"}, // memory miss + store hit
	} {
		if _, err := Run(context.Background(), eng, valueJobs(&computes, 1, keys...)); err != nil {
			t.Fatal(err)
		}
	}
	got := eng.Tiers()
	want := TierStats{MemoryHits: 1, MemoryMisses: 2, MemoryEntries: 2, StoreHits: 1, StoreMisses: 1}
	if got != want {
		t.Fatalf("Tiers() = %+v, want %+v", got, want)
	}
	var nilEng *Engine
	if s := nilEng.Tiers(); s != (TierStats{}) {
		t.Fatalf("nil engine Tiers() = %+v, want zero", s)
	}
}

// TestCacheHitAllocations guards the memory tier's hit path: a lookup that
// moves a kept entry to the LRU front must not allocate.
func TestCacheHitAllocations(t *testing.T) {
	eng := New(1)
	var computes atomic.Int64
	if _, err := Run(context.Background(), eng, valueJobs(&computes, 1, "a", "b")); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, outcome := eng.lookup("a"); outcome != "cache-memory" {
			t.Fatalf("lookup(a) = %q, want a memory hit", outcome)
		}
		if _, outcome := eng.lookup("b"); outcome != "cache-memory" {
			t.Fatalf("lookup(b) = %q, want a memory hit", outcome)
		}
	})
	if allocs > 0 {
		t.Fatalf("cache hit allocates %.1f times; want 0", allocs)
	}
}
