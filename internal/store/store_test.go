package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"speedofdata/internal/engine"
)

// testPayload is the result type used throughout these tests; it is
// registered at version 1 and re-registered by the invalidation test.
type testPayload struct {
	N int
	S string
}

func init() {
	engine.RegisterResultType(testPayload{}, 1)
}

func openWriter(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func wantGet(t *testing.T, s *Store, key string, want testPayload) {
	t.Helper()
	v, ok := s.Get(key)
	if !ok {
		t.Fatalf("Get(%q): miss, want hit", key)
	}
	got, ok := v.(testPayload)
	if !ok || got != want {
		t.Fatalf("Get(%q) = %#v, want %#v", key, v, want)
	}
}

func wantMiss(t *testing.T, s *Store, key string) {
	t.Helper()
	if v, ok := s.Get(key); ok {
		t.Fatalf("Get(%q) = %#v, want miss", key, v)
	}
}

func TestRoundTripAndWarmStart(t *testing.T) {
	dir := t.TempDir()
	s := openWriter(t, dir, Options{})
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), testPayload{N: i, S: "v"})
	}
	wantGet(t, s, "k3", testPayload{N: 3, S: "v"})
	st := s.Stats()
	if st.Puts != 10 || st.Entries != 10 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 10 puts, 10 entries, 1 hit", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Warm start: a fresh open serves everything from the rebuilt index.
	s2 := openWriter(t, dir, Options{})
	for i := 0; i < 10; i++ {
		wantGet(t, s2, fmt.Sprintf("k%d", i), testPayload{N: i, S: "v"})
	}
	if got := s2.Stats().Entries; got != 10 {
		t.Fatalf("warm entries = %d, want 10", got)
	}
}

func TestOverwriteSupersedes(t *testing.T) {
	s := openWriter(t, t.TempDir(), Options{})
	s.Put("k", testPayload{N: 1})
	s.Put("k", testPayload{N: 2})
	wantGet(t, s, "k", testPayload{N: 2})
	st := s.Stats()
	if st.Entries != 1 || st.DeadBytes == 0 {
		t.Fatalf("stats = %+v, want 1 entry and dead bytes from the superseded record", st)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openWriter(t, dir, Options{})
	for i := 0; i < 5; i++ {
		s.Put(fmt.Sprintf("k%d", i), testPayload{N: i})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a crash mid-append: chop bytes off the final record.
	path := filepath.Join(dir, segmentName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	s2 := openWriter(t, dir, Options{})
	st := s2.Stats()
	if st.Entries != 4 {
		t.Fatalf("entries after torn tail = %d, want 4", st.Entries)
	}
	for i := 0; i < 4; i++ {
		wantGet(t, s2, fmt.Sprintf("k%d", i), testPayload{N: i})
	}
	wantMiss(t, s2, "k4")
	// The tail was truncated, so new appends land on a clean boundary.
	s2.Put("k4", testPayload{N: 44})
	wantGet(t, s2, "k4", testPayload{N: 44})
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s3 := openWriter(t, dir, Options{})
	wantGet(t, s3, "k4", testPayload{N: 44})
}

func TestCorruptRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openWriter(t, dir, Options{})
	s.Put("a", testPayload{N: 1})
	s.Put("b", testPayload{N: 2})
	off := s.Stats().FileBytes
	s.Put("c", testPayload{N: 3})
	s.Close()

	// Flip a byte inside record c's body: the checksum catches it and the
	// reopen truncates from there.
	f, err := os.OpenFile(filepath.Join(dir, segmentName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, off+recHdrLen+2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openWriter(t, dir, Options{})
	if got := s2.Stats().Entries; got != 2 {
		t.Fatalf("entries after corrupt record = %d, want 2", got)
	}
	wantGet(t, s2, "a", testPayload{N: 1})
	wantGet(t, s2, "b", testPayload{N: 2})
	wantMiss(t, s2, "c")
}

func TestVersionBumpInvalidates(t *testing.T) {
	type bumped struct{ N int }
	engine.RegisterResultType(bumped{}, 1)
	s := openWriter(t, t.TempDir(), Options{})
	s.Put("k", bumped{N: 7})
	if v, ok := s.Get("k"); !ok || v.(bumped).N != 7 {
		t.Fatalf("Get before bump = %#v, %v", v, ok)
	}

	// A semantic version bump makes every stored record of the type stale.
	engine.RegisterResultType(bumped{}, 2)
	wantMiss(t, s, "k")
	st := s.Stats()
	if st.Stale != 1 || st.Entries != 0 || st.DeadBytes == 0 {
		t.Fatalf("stats after bump = %+v, want the record stale and dead", st)
	}
	// The new version's results take its place.
	s.Put("k", bumped{N: 8})
	if v, ok := s.Get("k"); !ok || v.(bumped).N != 8 {
		t.Fatalf("Get after re-put = %#v, %v", v, ok)
	}
}

func TestUnregisteredTypeSkipped(t *testing.T) {
	type unregistered struct{ N int }
	s := openWriter(t, t.TempDir(), Options{})
	s.Put("k", unregistered{N: 1})
	st := s.Stats()
	if st.Puts != 0 || st.Skipped != 1 {
		t.Fatalf("stats = %+v, want the unregistered put skipped", st)
	}
	wantMiss(t, s, "k")
}

func TestLockContention(t *testing.T) {
	dir := t.TempDir()
	s := openWriter(t, dir, Options{})
	s.Put("k", testPayload{N: 5})

	// A second writer is refused with the typed error.
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second writer Open succeeded, want *LockedError")
	} else {
		var le *LockedError
		if !errors.As(err, &le) || le.Dir != dir {
			t.Fatalf("second writer error = %v, want *LockedError for %s", err, dir)
		}
	}

	// A read-only open succeeds alongside the writer and sees its records —
	// including ones appended after the reader opened, via tail refresh.
	r, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only Open: %v", err)
	}
	defer r.Close()
	wantGet(t, r, "k", testPayload{N: 5})
	s.Put("late", testPayload{N: 6})
	wantGet(t, r, "late", testPayload{N: 6})
	if !r.Stats().ReadOnly {
		t.Fatal("reader Stats().ReadOnly = false")
	}
	// Reader puts are dropped silently.
	r.Put("nope", testPayload{N: 9})
	wantMiss(t, s, "nope")

	// Releasing the writer lock admits the next writer.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after release: %v", err)
	}
	s2.Close()
}

// compact forces a compaction pass through the writer's own path, the one
// Put takes once enough dead bytes pile up.
func compact(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.compactLocked(); err != nil {
		t.Fatalf("compact: %v", err)
	}
}

func TestCompaction(t *testing.T) {
	s := openWriter(t, t.TempDir(), Options{CompactMinBytes: 1 << 40}) // no auto compaction
	for i := 0; i < 100; i++ {
		s.Put("hot", testPayload{N: i, S: "xxxxxxxxxxxxxxxx"})
	}
	s.Put("cold", testPayload{N: -1})
	before := s.Stats()
	if before.DeadBytes == 0 {
		t.Fatalf("stats = %+v, want dead bytes before compaction", before)
	}
	compact(t, s)
	after := s.Stats()
	if after.DeadBytes != 0 || after.Entries != 2 || after.Compactions != 1 {
		t.Fatalf("stats after compaction = %+v", after)
	}
	if after.FileBytes >= before.FileBytes || after.LastCompactionReclaimedBytes == 0 {
		t.Fatalf("compaction reclaimed nothing: before=%+v after=%+v", before, after)
	}
	if after.LastCompactionLiveEntries != 2 {
		t.Fatalf("LastCompactionLiveEntries = %d, want 2", after.LastCompactionLiveEntries)
	}
	wantGet(t, s, "hot", testPayload{N: 99, S: "xxxxxxxxxxxxxxxx"})
	wantGet(t, s, "cold", testPayload{N: -1})
}

func TestAutoCompaction(t *testing.T) {
	s := openWriter(t, t.TempDir(), Options{CompactMinBytes: 1})
	for i := 0; i < 50; i++ {
		s.Put("k", testPayload{N: i, S: "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"})
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("stats = %+v, want automatic compactions", st)
	}
	wantGet(t, s, "k", testPayload{N: 49, S: "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"})
}

func TestByteBoundEvictsOldest(t *testing.T) {
	s := openWriter(t, t.TempDir(), Options{MaxBytes: 1 << 10, CompactMinBytes: 1})
	big := string(make([]byte, 200))
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("k%d", i), testPayload{N: i, S: big})
	}
	st := s.Stats()
	if st.Evicted == 0 || st.LiveBytes > 1<<10 {
		t.Fatalf("stats = %+v, want evictions holding live bytes under the bound", st)
	}
	// The newest entry survives; the oldest is gone.
	wantGet(t, s, "k19", testPayload{N: 19, S: big})
	wantMiss(t, s, "k0")
}

func TestConcurrentReaderDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openWriter(t, dir, Options{CompactMinBytes: 1 << 40})
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("k%d", i), testPayload{N: i})
	}
	r, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only Open: %v", err)
	}
	defer r.Close()
	wantGet(t, r, "k0", testPayload{N: 0})

	// Reads race the writer's churn and compactions; the reader must never
	// see a wrong value — only hits on its open snapshot or clean misses.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("k%d", i%20)
			if v, ok := r.Get(key); ok {
				if got := v.(testPayload).N; got != i%20 {
					t.Errorf("reader Get(%q) = %d, want %d", key, got, i%20)
					return
				}
			}
		}
	}()
	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			s.Put(fmt.Sprintf("k%d", i), testPayload{N: i})
		}
		compact(t, s)
	}
	close(stop)
	wg.Wait()

	// After the dust settles the reader refreshes onto the new segment.
	r.refresh()
	for i := 0; i < 20; i++ {
		wantGet(t, r, fmt.Sprintf("k%d", i), testPayload{N: i})
	}
}

func TestForeignSchemaDiscarded(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName), []byte("not a qsd store segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openWriter(t, dir, Options{})
	if got := s.Stats().Entries; got != 0 {
		t.Fatalf("entries = %d, want 0 for a foreign segment", got)
	}
	s.Put("k", testPayload{N: 1})
	wantGet(t, s, "k", testPayload{N: 1})
	s.Close()
	s2 := openWriter(t, dir, Options{})
	wantGet(t, s2, "k", testPayload{N: 1})
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"", SyncOnCompact}, {"compact", SyncOnCompact}, {"always", SyncAlways}, {"never", SyncNever}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy(sometimes): want error")
	}
}

func TestSyncAlways(t *testing.T) {
	s := openWriter(t, t.TempDir(), Options{Sync: SyncAlways})
	s.Put("k", testPayload{N: 1})
	wantGet(t, s, "k", testPayload{N: 1})
}

func TestClosedStore(t *testing.T) {
	s := openWriter(t, t.TempDir(), Options{})
	s.Put("k", testPayload{N: 1})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wantMiss(t, s, "k")
	s.Put("k2", testPayload{N: 2}) // must not panic
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// checkOpen writes data as dir's segment and opens it read-only, then as
// the writer.  Each Open returns a store or an error, every Get of an
// indexed key misses or returns a value of the record's registered type, and
// Close succeeds.  It returns the entry count each open indexed.
func checkOpen(t *testing.T, data []byte) (entries []int) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{ReadOnly: true}, {}} {
		s, err := Open(dir, opts)
		if err != nil {
			continue
		}
		refs := maps.Clone(s.index)
		entries = append(entries, len(refs))
		for key, ref := range refs {
			if v, ok := s.Get(key); ok && reflect.TypeOf(v).String() != ref.typeName {
				t.Errorf("Get(%q) = %T, want the record's type %s", key, v, ref.typeName)
			}
		}
		if err := s.Close(); err != nil {
			t.Errorf("Close (read-only %v): %v", opts.ReadOnly, err)
		}
	}
	return entries
}

// segment frames each body as a checksummed record behind a segment header.
func segment(bodies ...[]byte) []byte {
	seg := binary.LittleEndian.AppendUint32([]byte(magic), SchemaVersion)
	for _, b := range bodies {
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(b)))
		seg = binary.LittleEndian.AppendUint32(seg, crc32.Checksum(b, crcTable))
		seg = append(seg, b...)
	}
	return seg
}

// Corrupt records never panic Open, allocate what the file does not hold, or
// reach a caller: a key length uvarint >= 2^63 behind a valid checksum (it
// once passed takeString's signed bounds check and panicked Open), a record
// header claiming a 1 GiB body the file does not hold (Open once allocated
// it before finding the file short), and a payload of another type than its
// record names (Get once returned it).
func TestOpenCorruptRecords(t *testing.T) {
	huge, err := os.ReadFile(filepath.Join("testdata", "huge-string-length.log"))
	if err != nil {
		t.Fatal(err)
	}
	torn := append(binary.LittleEndian.AppendUint32(segment(), maxRecordBytes), 0, 0, 0, 0)
	payload, err := encodePayload(7)
	if err != nil {
		t.Fatal(err)
	}
	name := reflect.TypeOf(testPayload{}).String()
	body := append(binary.AppendUvarint(nil, 1), 'k')
	body = append(binary.AppendUvarint(body, uint64(len(name))), name...)
	body = append(binary.AppendUvarint(body, 1), payload...)
	for _, tc := range []struct {
		name    string
		data    []byte
		entries []int
	}{
		{"huge string length", huge, []int{0, 0}},
		{"torn 1 GiB header", torn, []int{0, 0}},
		{"payload of another type", segment(body), []int{1, 1}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := checkOpen(t, tc.data)
		runtime.ReadMemStats(&after)
		if !slices.Equal(got, tc.entries) {
			t.Errorf("%s: entries (read-only, writer) = %v, want %v", tc.name, got, tc.entries)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: opening allocated %d bytes", tc.name, grew)
		}
	}
}

// FuzzStoreOpen opens arbitrary segment bytes (wrap false) and segments
// holding one record with a valid checksum around a fuzzed body, followed by
// valid records (wrap true), so the fuzzer reaches the record parser rather
// than stopping at the checksum.
func FuzzStoreOpen(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	s.Put("k1", testPayload{N: 1, S: "a"})
	s.Put("k2", testPayload{N: 2})
	s.Close()
	valid, err := os.ReadFile(filepath.Join(dir, segmentName))
	if err != nil {
		f.Fatal(err)
	}
	huge, err := os.ReadFile(filepath.Join("testdata", "huge-string-length.log"))
	if err != nil {
		f.Fatal(err)
	}
	body := func(seg []byte) []byte {
		n := binary.LittleEndian.Uint32(seg[headerLen:])
		return seg[headerLen+recHdrLen : headerLen+recHdrLen+int(n)]
	}
	f.Add(false, valid)
	f.Add(false, huge)
	f.Add(true, body(valid))
	f.Add(true, body(huge))
	f.Fuzz(func(t *testing.T, wrap bool, data []byte) {
		if wrap {
			data = append(segment(data), valid[headerLen:]...)
		}
		checkOpen(t, data)
	})
}
