// Package store is the disk tier of the experiment engine's result cache: a
// log-structured, content-addressed store that maps typed engine job keys to
// gob-encoded results, so a restarted process (or a second replica pointed
// at the same directory) serves previously computed grids as key lookups
// instead of simulations.
//
// Layout: one append-only segment file of length-prefixed, checksummed
// (key, type, version, payload) records behind an in-memory index.  Updates
// append; superseded records become dead bytes that a snapshot+compaction
// pass reclaims once they dominate the file.  Crash safety comes from the
// record checksums: a torn tail record (a crash or kill -9 mid-append) is
// detected and truncated on the next writer open, never poisoning the
// surviving records.
//
// Validity is versioned at two levels.  The segment header carries the
// store's schema version — a format change abandons old files wholesale —
// and every record carries its result type's semantic version
// (engine.RegisterResultType): bumping that version invalidates every stored
// record of the type, the on-disk extension of the cache-key-namespace
// discipline the in-memory tiers already follow.
//
// Concurrency: a flock on the directory's LOCK file admits one writer at a
// time (a second writer gets *LockedError).  Readers (Options.ReadOnly) take
// no lock at all — the log is append-only and compaction replaces the
// segment atomically via rename — and re-scan the tail on a miss, so a
// replica borrows the writer's results as they land (cross-process
// read-through).
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"speedofdata/internal/engine"
)

// SchemaVersion is the on-disk record format version.  Segments written
// under any other schema are discarded on open (truncated by a writer,
// treated as empty by a reader).
const SchemaVersion = 1

const (
	segmentName = "store.log"
	lockName    = "LOCK"
	magic       = "QSDSTORE"
	headerLen   = len(magic) + 4 // magic + uint32 schema
	recHdrLen   = 8              // uint32 body length + uint32 CRC32-C
	// maxRecordBytes rejects absurd length prefixes while scanning (a torn
	// header read as a huge length must not allocate gigabytes).
	maxRecordBytes = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// LockedError reports that another process holds the store's writer lock.
// Open the store with Options.ReadOnly to borrow its results instead.
type LockedError struct{ Dir string }

func (e *LockedError) Error() string {
	return fmt.Sprintf("store: %s is locked by another writer (open read-only to share it)", e.Dir)
}

// SyncPolicy selects when the segment file is fsynced.
type SyncPolicy int

const (
	// SyncOnCompact (the default) fsyncs at compaction and Close.  A crash
	// can lose recent appends — which are only cached results, recomputable
	// by definition — but never corrupts the store (torn tails truncate).
	SyncOnCompact SyncPolicy = iota
	// SyncAlways fsyncs after every Put.
	SyncAlways
	// SyncNever leaves all flushing to the OS.
	SyncNever
)

// ParseSyncPolicy parses a -store-sync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "compact":
		return SyncOnCompact, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown sync policy %q (want compact, always or never)", s)
}

// DefaultMaxBytes bounds the disk tier's live bytes when Options.MaxBytes is
// zero; past it the oldest entries are evicted at the next compaction check.
const DefaultMaxBytes = 256 << 20

// Options tunes a store.
type Options struct {
	// ReadOnly opens the store without the writer lock: Get works (with
	// tail re-scans on miss, so another process's appends become visible),
	// Put is a no-op.
	ReadOnly bool
	// Sync is the fsync policy (default SyncOnCompact).
	Sync SyncPolicy
	// MaxBytes bounds live record bytes (<= 0 selects DefaultMaxBytes); the
	// oldest entries are evicted to stay under it.  The memory tier above
	// (engine.CacheLimit) is bounded by entries; the disk tier by bytes.
	MaxBytes int64
	// CompactMinBytes suppresses compaction until dead bytes reach it
	// (<= 0 selects 1 MiB), so small stores never churn.
	CompactMinBytes int64
}

func (o Options) withDefaults() Options {
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = 1 << 20
	}
	return o
}

// recordRef locates one live record in the segment.
type recordRef struct {
	off      int64 // record start (length prefix)
	n        int64 // total record bytes including the 8-byte header
	typeName string
	version  int
	seq      int64 // append order, for oldest-first eviction
}

// Store is a disk-backed engine.CacheBackend.  It is safe for concurrent
// use; one process may write (flock-guarded) while others read.
type Store struct {
	dir  string
	path string
	opts Options

	mu     sync.RWMutex
	f      *os.File // nil for a reader whose segment does not exist yet
	lock   *os.File // writer lock holder
	index  map[string]recordRef
	size   int64 // bytes scanned/written so far (writer: file length)
	live   int64
	dead   int64
	next   int64 // next record seq
	closed bool

	hits, misses, puts, skipped int64
	evicted, stale              int64
	compactions                 int64
	lastReclaimed               int64
	lastLive                    int
}

// Open opens (creating if needed) the store in dir.  A writer takes the
// directory's flock; a concurrent second writer gets *LockedError.  Opening
// truncates any torn tail left by a crashed writer and drops segments with a
// foreign schema version.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{
		dir:   dir,
		path:  filepath.Join(dir, segmentName),
		opts:  opts,
		index: make(map[string]recordRef),
	}
	if opts.ReadOnly {
		// Missing directory or segment is an empty store; refresh retries.
		s.reopenLocked()
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, &LockedError{Dir: dir}
	}
	s.lock = lock
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	s.f = f
	valid, headerOK := s.scan(f)
	if !headerOK {
		// Empty file or foreign schema: start the segment over.
		if err := f.Truncate(0); err != nil {
			f.Close()
			lock.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		hdr := append([]byte(magic), 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(hdr[len(magic):], SchemaVersion)
		if _, err := f.WriteAt(hdr, 0); err != nil {
			f.Close()
			lock.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		valid = int64(headerLen)
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > valid {
		// Torn or corrupt tail (e.g. a kill -9 mid-append): drop it so the
		// next append starts on a clean boundary.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			lock.Close()
			return nil, fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	s.size = valid
	return s, nil
}

// scan reads records from s.size (or from the header when starting fresh)
// through f, extending the index.  It returns the offset of the first byte
// that is not a valid record, and whether the segment header matched.
// Everything past the returned offset is a torn tail or foreign data.
func (s *Store) scan(f *os.File) (valid int64, headerOK bool) {
	off := s.size
	if off < int64(headerLen) {
		hdr := make([]byte, headerLen)
		if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(headerLen)), hdr); err != nil {
			return 0, false
		}
		if string(hdr[:len(magic)]) != magic ||
			binary.LittleEndian.Uint32(hdr[len(magic):]) != SchemaVersion {
			return 0, false
		}
		off = int64(headerLen)
	}
	// A length prefix past the end of the file is a torn or corrupt header:
	// stop before allocating its body.
	end := int64(math.MaxInt64)
	if fi, err := f.Stat(); err == nil {
		end = fi.Size()
	}
	var hdr [recHdrLen]byte
	for {
		if _, err := io.ReadFull(io.NewSectionReader(f, off, recHdrLen), hdr[:]); err != nil {
			return off, true
		}
		bodyLen := int64(binary.LittleEndian.Uint32(hdr[:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if bodyLen <= 0 || bodyLen > maxRecordBytes || off+recHdrLen+bodyLen > end {
			return off, true
		}
		body := make([]byte, bodyLen)
		if _, err := io.ReadFull(io.NewSectionReader(f, off+recHdrLen, bodyLen), body); err != nil {
			return off, true
		}
		if crc32.Checksum(body, crcTable) != sum {
			return off, true
		}
		key, typeName, version, ok := parseBodyHeader(body)
		if !ok {
			return off, true
		}
		n := recHdrLen + bodyLen
		if old, exists := s.index[key]; exists {
			s.dead += old.n
			s.live -= old.n
		}
		s.index[key] = recordRef{off: off, n: n, typeName: typeName, version: version, seq: s.next}
		s.next++
		s.live += n
		off += n
	}
}

// parseBodyHeader splits a record body into key, type name and version,
// leaving the payload behind (its offset is recomputed on read).
func parseBodyHeader(body []byte) (key, typeName string, version int, ok bool) {
	key, rest, ok := takeString(body)
	if !ok {
		return "", "", 0, false
	}
	typeName, rest, ok = takeString(rest)
	if !ok {
		return "", "", 0, false
	}
	v, n := binary.Uvarint(rest)
	if n <= 0 {
		return "", "", 0, false
	}
	return key, typeName, int(v), true
}

func takeString(b []byte) (string, []byte, bool) {
	l, n := binary.Uvarint(b)
	if n <= 0 || l > uint64(len(b)-n) {
		return "", nil, false
	}
	return string(b[n : n+int(l)]), b[n+int(l):], true
}

// payloadOf re-parses a record body and returns its payload bytes.
func payloadOf(body []byte) ([]byte, bool) {
	_, rest, ok := takeString(body)
	if !ok {
		return nil, false
	}
	_, rest, ok = takeString(rest)
	if !ok {
		return nil, false
	}
	_, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, false
	}
	return rest[n:], true
}

// box wraps payload values so gob carries the concrete type (which must be
// registered via engine.RegisterResultType).
type box struct{ V any }

func encodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(box{V: v}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodePayload(b []byte) (any, error) {
	var bx box
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&bx); err != nil {
		return nil, err
	}
	return bx.V, nil
}

// Get implements engine.CacheBackend.  Records whose result type is
// unregistered, registered under a different semantic version, or that fail
// to read or decode are misses.  A read-only store that misses re-scans the
// segment tail first, so it sees a live writer's recent appends.
func (s *Store) Get(key string) (any, bool) {
	s.mu.RLock()
	ref, ok := s.index[key]
	f := s.f
	s.mu.RUnlock()
	if !ok && s.opts.ReadOnly {
		if s.refresh() {
			s.mu.RLock()
			ref, ok = s.index[key]
			f = s.f
			s.mu.RUnlock()
		}
	}
	if !ok || f == nil {
		s.miss()
		return nil, false
	}
	rt, registered := engine.ResultTypeByName(ref.typeName)
	if !registered || rt.Version != ref.version {
		s.mu.Lock()
		s.stale++
		s.misses++
		// A stale record is dead weight; let compaction reclaim it.
		if cur, ok := s.index[key]; ok && cur.off == ref.off {
			delete(s.index, key)
			s.live -= cur.n
			s.dead += cur.n
		}
		s.mu.Unlock()
		return nil, false
	}
	body := make([]byte, ref.n-recHdrLen)
	if _, err := f.ReadAt(body, ref.off+recHdrLen); err != nil {
		s.miss()
		return nil, false
	}
	payload, ok := payloadOf(body)
	if !ok {
		s.miss()
		return nil, false
	}
	v, err := decodePayload(payload)
	if got, _ := engine.ResultTypeOf(v); err != nil || got.Name != rt.Name {
		// Undecodable, or a payload of another type than its record names.
		s.miss()
		return nil, false
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return v, true
}

func (s *Store) miss() {
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
}

// Put implements engine.CacheBackend: it appends a record for the value and
// updates the index, then evicts and compacts if thresholds are crossed.
// Values whose concrete type is not registered (engine.RegisterResultType),
// or that fail to encode, are skipped — the memory tier still holds them.
// On a read-only store Put is a no-op.
func (s *Store) Put(key string, v any) {
	if s.opts.ReadOnly || key == "" {
		return
	}
	rt, ok := engine.ResultTypeOf(v)
	if !ok {
		s.skip()
		return
	}
	payload, err := encodePayload(v)
	if err != nil {
		s.skip()
		return
	}
	body := binary.AppendUvarint(nil, uint64(len(key)))
	body = append(body, key...)
	body = binary.AppendUvarint(body, uint64(len(rt.Name)))
	body = append(body, rt.Name...)
	body = binary.AppendUvarint(body, uint64(rt.Version))
	body = append(body, payload...)
	rec := make([]byte, recHdrLen+len(body))
	binary.LittleEndian.PutUint32(rec[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(body, crcTable))
	copy(rec[recHdrLen:], body)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.f == nil {
		return
	}
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		s.skipped++
		return
	}
	if old, exists := s.index[key]; exists {
		s.dead += old.n
		s.live -= old.n
	}
	s.index[key] = recordRef{
		off: s.size, n: int64(len(rec)),
		typeName: rt.Name, version: rt.Version, seq: s.next,
	}
	s.next++
	s.size += int64(len(rec))
	s.live += int64(len(rec))
	s.puts++
	if s.opts.Sync == SyncAlways {
		s.f.Sync()
	}
	s.maybeCompactLocked()
}

func (s *Store) skip() {
	s.mu.Lock()
	s.skipped++
	s.mu.Unlock()
}

// maybeCompactLocked enforces the byte bound (evicting oldest entries) and
// runs a compaction when dead bytes reach CompactMinBytes and make up more
// than half the segment.
func (s *Store) maybeCompactLocked() {
	if s.live > s.opts.MaxBytes {
		refs := make([]recordRef, 0, len(s.index))
		byOff := make(map[int64]string, len(s.index))
		for k, ref := range s.index {
			refs = append(refs, ref)
			byOff[ref.off] = k
		}
		sort.Slice(refs, func(i, j int) bool { return refs[i].seq < refs[j].seq })
		for _, ref := range refs {
			if s.live <= s.opts.MaxBytes {
				break
			}
			delete(s.index, byOff[ref.off])
			s.live -= ref.n
			s.dead += ref.n
			s.evicted++
		}
	}
	if s.dead >= s.opts.CompactMinBytes && s.dead > s.live {
		s.compactLocked()
	}
}

// compactLocked is the snapshot+compaction pass, run with s.mu held: live
// records are rewritten to a fresh segment that atomically replaces the old
// one via rename.  Readers in other processes keep serving from their open
// (now unlinked) segment and pick up the new one on their next refresh.
func (s *Store) compactLocked() error {
	tmpPath := s.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	hdr := append([]byte(magic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(hdr[len(magic):], SchemaVersion)
	if _, err := tmp.Write(hdr); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact: %w", err)
	}
	// Copy live records in append order so eviction ordering survives.
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return s.index[keys[i]].seq < s.index[keys[j]].seq })
	newIndex := make(map[string]recordRef, len(keys))
	off := int64(headerLen)
	for _, k := range keys {
		ref := s.index[k]
		rec := make([]byte, ref.n)
		if _, err := s.f.ReadAt(rec, ref.off); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("store: compact: %w", err)
		}
		if _, err := tmp.Write(rec); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("store: compact: %w", err)
		}
		ref.off = off
		newIndex[k] = ref
		off += ref.n
	}
	if s.opts.Sync != SyncNever {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("store: compact: %w", err)
		}
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact: %w", err)
	}
	if s.opts.Sync != SyncNever {
		if d, err := os.Open(s.dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	reclaimed := s.size - off
	s.f.Close()
	s.f = tmp
	s.index = newIndex
	s.size = off
	s.live = off - int64(headerLen)
	s.dead = 0
	s.compactions++
	s.lastReclaimed = reclaimed
	s.lastLive = len(newIndex)
	return nil
}

// refresh brings a read-only store up to date with the writer: it extends
// the index over newly appended records, and reopens from scratch when
// compaction has replaced the segment.  It reports whether anything changed.
func (s *Store) refresh() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	cur, err := os.Stat(s.path)
	if err != nil {
		return false
	}
	if s.f != nil {
		if fi, err := s.f.Stat(); err == nil && os.SameFile(fi, cur) {
			if cur.Size() <= s.size {
				return false
			}
			// The writer appended: scan just the tail.  An invalid tail here
			// may simply be an append in progress — keep the scanned prefix
			// and retry from the same offset next time.
			old := s.size
			valid, _ := s.scan(s.f)
			s.size = valid
			return valid > old
		}
	}
	return s.reopenLocked()
}

// reopenLocked (re)opens the segment read-only and rebuilds the index.
func (s *Store) reopenLocked() bool {
	f, err := os.Open(s.path)
	if err != nil {
		return false
	}
	if s.f != nil {
		s.f.Close()
	}
	s.f = f
	s.index = make(map[string]recordRef)
	s.size, s.live, s.dead, s.next = 0, 0, 0, 0
	valid, headerOK := s.scan(f)
	if !headerOK {
		// Foreign schema or not yet initialised: treat as empty.
		s.f.Close()
		s.f = nil
		return false
	}
	s.size = valid
	return true
}

// Stats implements engine.StatBackend.
func (s *Store) Stats() engine.BackendStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return engine.BackendStats{
		Hits:                         s.hits,
		Misses:                       s.misses,
		Puts:                         s.puts,
		Skipped:                      s.skipped,
		Entries:                      len(s.index),
		LiveBytes:                    s.live,
		DeadBytes:                    s.dead,
		FileBytes:                    s.size,
		Evicted:                      s.evicted,
		Stale:                        s.stale,
		Compactions:                  s.compactions,
		LastCompactionReclaimedBytes: s.lastReclaimed,
		LastCompactionLiveEntries:    s.lastLive,
		ReadOnly:                     s.opts.ReadOnly,
	}
}

// Close flushes (per the sync policy) and releases the segment and the
// writer lock.  A closed store misses every Get and drops every Put.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.f != nil {
		if !s.opts.ReadOnly && s.opts.Sync != SyncNever {
			err = s.f.Sync()
		}
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
	}
	if s.lock != nil {
		if cerr := s.lock.Close(); err == nil {
			err = cerr
		}
		s.lock = nil
	}
	s.index = nil
	return err
}
