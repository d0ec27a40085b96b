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

// TestLRUEvictsColdestKey fills the cache past its limit and checks that the
// entry evicted is the least recently used one, not an arbitrary victim.
func TestLRUEvictsColdestKey(t *testing.T) {
	eng := New(1)
	eng.CacheLimit = 2
	eng.cachePut("a", 1)
	eng.cachePut("b", 2)
	// Touch a so b becomes the eviction candidate.
	if _, _, ok := eng.cacheGet("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	eng.cachePut("c", 3)
	if _, _, ok := eng.cacheGet("b"); ok {
		t.Fatal("b survived eviction; want the LRU entry evicted")
	}
	if v, _, ok := eng.cacheGet("a"); !ok || v != 1 {
		t.Fatalf("a = %v, %v after eviction; want 1 (recently used)", v, ok)
	}
	if v, _, ok := eng.cacheGet("c"); !ok || v != 3 {
		t.Fatalf("c = %v, %v; want 3 (just inserted)", v, ok)
	}
}

// TestLRUUpdateMovesToFront re-putting an existing key must refresh both its
// value and its recency.
func TestLRUUpdateMovesToFront(t *testing.T) {
	eng := New(1)
	eng.CacheLimit = 2
	eng.cachePut("a", 1)
	eng.cachePut("b", 2)
	eng.cachePut("a", 10) // refresh a; b is now LRU
	eng.cachePut("c", 3)
	if _, _, ok := eng.cacheGet("b"); ok {
		t.Fatal("b survived; want it evicted as LRU")
	}
	if v, _, ok := eng.cacheGet("a"); !ok || v != 10 {
		t.Fatalf("a = %v, %v; want updated value 10", v, ok)
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
	if v, _, ok := eng.cacheGet("k"); !ok || v != 7 {
		t.Fatalf("cacheGet = %v, %v; want backend hit", v, ok)
	}
	if backend.puts.Load() != 0 {
		t.Fatalf("backend puts = %d, want 0 on promotion", backend.puts.Load())
	}
}

// TestTiersStats exercises the counter plumbing behind /v1/healthz.
func TestTiersStats(t *testing.T) {
	backend := newMapBackend()
	eng := New(1)
	eng.Backend = backend
	eng.cacheGet("missing") // memory miss + store miss
	eng.cachePut("k", 1)    // memory + write-through
	eng.cacheGet("k")       // memory hit
	backend.m["disk-only"] = 2
	eng.cacheGet("disk-only") // memory miss + store hit
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

// TestCacheHitAllocations guards the memory tier's hit path: an LRU
// move-to-front must not allocate.
func TestCacheHitAllocations(t *testing.T) {
	eng := New(1)
	eng.cachePut("a", 1)
	eng.cachePut("b", 2)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := eng.cacheGet("a"); !ok {
			t.Fatal("unexpected miss")
		}
		if _, _, ok := eng.cacheGet("b"); !ok {
			t.Fatal("unexpected miss")
		}
	})
	if allocs > 0 {
		t.Fatalf("cache hit allocates %.1f times; want 0", allocs)
	}
}
