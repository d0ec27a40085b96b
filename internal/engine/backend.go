package engine

import (
	"encoding/gob"
	"reflect"
	"sync"
)

// CacheBackend is a second result-cache tier behind the engine's in-memory
// map.  On a memory miss the engine consults the backend before computing,
// and every computed result is written through to it, so a disk-backed
// implementation (internal/store) turns repeated work into a key lookup that
// survives process restarts and can be shared between processes.
//
// Both methods must be safe for concurrent use.  Put is best-effort: a
// backend that cannot encode or persist a value simply drops it — the
// in-memory tier and the computation itself are never affected, so attaching
// a backend can never change results, only how often they are recomputed.
type CacheBackend interface {
	// Get returns the stored result for key, or ok == false on a miss.
	Get(key string) (v any, ok bool)
	// Put stores a computed result under key.
	Put(key string, v any)
}

// BackendStats describes a cache backend's effectiveness and footprint; the
// serving tier reports it as /v1/healthz's "store" object, in the JSON
// below.  Backends expose it through the optional StatBackend interface.
type BackendStats struct {
	// Hits and Misses count Get lookups that found / did not find a usable
	// record (stale-version and corrupt records count as misses).
	Hits, Misses int64 `json:"-"`
	// Entries is the number of live keys; LiveBytes their record bytes.
	Entries   int   `json:"entries"`
	LiveBytes int64 `json:"live_bytes"`
	// DeadBytes is the garbage awaiting compaction (superseded, evicted and
	// stale-version records); FileBytes the total on-disk segment size.
	DeadBytes int64 `json:"dead_bytes"`
	FileBytes int64 `json:"file_bytes"`
	// Puts counts records persisted; Skipped counts Put values the backend
	// declined (unregistered result type or encoding failure).
	Puts    int64 `json:"puts"`
	Skipped int64 `json:"skipped"`
	// Evicted counts entries dropped to keep the store under its byte bound;
	// Stale counts records invalidated by a result-type version bump.
	Evicted int64 `json:"evicted"`
	Stale   int64 `json:"stale"`
	// ReadOnly reports a reader-mode backend (borrowing another process's
	// results; Put is a no-op).
	ReadOnly bool `json:"read_only"`
	// Compactions counts snapshot+compaction passes;
	// LastCompactionReclaimedBytes and LastCompactionLiveEntries describe
	// the most recent one.
	Compactions                  int64 `json:"compactions"`
	LastCompactionReclaimedBytes int64 `json:"last_compaction_reclaimed_bytes"`
	LastCompactionLiveEntries    int   `json:"last_compaction_live_entries"`
}

// StatBackend is implemented by backends that report their effectiveness.
type StatBackend interface {
	CacheBackend
	Stats() BackendStats
}

// ResultType describes one registered cacheable result type.
type ResultType struct {
	// Name is the stable type name recorded on disk (reflect's package-
	// qualified rendering, e.g. "report.Section").
	Name string
	// Version is the type's semantic version.  Records written under a
	// different version are invalid.
	Version int
}

var (
	resultTypeMu     sync.RWMutex
	resultTypeByType = map[reflect.Type]ResultType{}
	resultTypeByName = map[string]ResultType{}
)

// RegisterResultType declares that cached results of sample's concrete type
// may be persisted by a CacheBackend, and registers the type with gob so the
// backend can encode it.  version is the type's semantic version: bump it
// whenever a code change alters the meaning of the computation behind the
// type's job keys (new fields derived differently, changed units, a fixed
// bug in the producing simulation), and every record persisted under the old
// version becomes invalid — the on-disk analogue of the cache-key-namespace
// discipline that keeps in-memory results honest across samplers.
//
// Unregistered result types are simply never persisted (they stay in the
// memory tier), so registration is an opt-in per type.  Re-registering a
// type replaces its version, which is how tests exercise invalidation.
// Register from an init function: backends snapshot versions per lookup, but
// a store opened before registration cannot decode the type's records.
func RegisterResultType(sample any, version int) {
	t := reflect.TypeOf(sample)
	if t == nil {
		panic("engine: RegisterResultType of untyped nil")
	}
	gob.Register(sample)
	rt := ResultType{Name: t.String(), Version: version}
	resultTypeMu.Lock()
	defer resultTypeMu.Unlock()
	resultTypeByType[t] = rt
	resultTypeByName[rt.Name] = rt
}

// ResultTypeOf returns the registration of v's concrete type.
func ResultTypeOf(v any) (ResultType, bool) {
	resultTypeMu.RLock()
	defer resultTypeMu.RUnlock()
	rt, ok := resultTypeByType[reflect.TypeOf(v)]
	return rt, ok
}

// ResultTypeByName returns the registration for a stored type name.
func ResultTypeByName(name string) (ResultType, bool) {
	resultTypeMu.RLock()
	defer resultTypeMu.RUnlock()
	rt, ok := resultTypeByName[name]
	return rt, ok
}
