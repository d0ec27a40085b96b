package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rngJobs builds a batch whose results depend only on each job's RNG stream,
// so any scheduling nondeterminism would show up as a value change.
func rngJobs(n int) []Job[float64] {
	jobs := make([]Job[float64], n)
	for i := range jobs {
		jobs[i] = Job[float64]{
			Key: Fingerprint("rng-job", i),
			Run: func(_ context.Context, rng *rand.Rand) (float64, error) {
				sum := 0.0
				for k := 0; k < 1000; k++ {
					sum += rng.Float64()
				}
				return sum, nil
			},
		}
	}
	return jobs
}

func TestParallelMatchesSequential(t *testing.T) {
	jobs := rngJobs(32)
	seq, err := Run(context.Background(), Sequential(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), New(8), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("job %d: sequential %v != parallel %v", i, seq[i], par[i])
		}
	}
}

func TestNilEngineRunsSequentially(t *testing.T) {
	jobs := rngJobs(4)
	got, err := Run(context.Background(), nil, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), Sequential(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("job %d: nil engine %v != sequential %v", i, got[i], want[i])
		}
	}
}

func TestResultsKeepJobOrder(t *testing.T) {
	jobs := make([]Job[int], 20)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: Fingerprint("order", i),
			Run: func(context.Context, *rand.Rand) (int, error) { return i * i, nil },
		}
	}
	out, err := Run(context.Background(), New(4), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	var ran atomic.Int32
	jobs := make([]Job[int], 64)
	for i := range jobs {
		jobs[i] = Job[int]{
			Key: Fingerprint("cancel", i),
			Run: func(ctx context.Context, _ *rand.Rand) (int, error) {
				ran.Add(1)
				select {
				case started <- struct{}{}:
				default:
				}
				<-ctx.Done()
				return 0, ctx.Err()
			},
		}
	}
	go func() {
		<-started
		cancel()
	}()
	_, err := Run(ctx, New(2), jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancellation = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 64 {
		t.Fatalf("cancellation mid-sweep still ran all %d jobs", n)
	}
}

func TestCacheHitOnRepeatedFingerprint(t *testing.T) {
	var computed atomic.Int32
	job := Job[int]{
		Key: Fingerprint("cache-me", 7),
		Run: func(context.Context, *rand.Rand) (int, error) {
			computed.Add(1)
			return 42, nil
		},
	}
	e := New(4)
	for round := 0; round < 3; round++ {
		out, err := Run(context.Background(), e, []Job[int]{job})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != 42 {
			t.Fatalf("round %d: got %d, want 42", round, out[0])
		}
	}
	if n := computed.Load(); n != 1 {
		t.Fatalf("job computed %d times, want 1 (cache hits after the first)", n)
	}
	tiers := e.Tiers()
	if tiers.MemoryHits != 2 || tiers.MemoryMisses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 2 / 1", tiers.MemoryHits, tiers.MemoryMisses)
	}
}

func TestFirstErrorCancelsBatch(t *testing.T) {
	boom := errors.New("boom")
	jobs := make([]Job[int], 16)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: Fingerprint("err", i),
			Run: func(ctx context.Context, _ *rand.Rand) (int, error) {
				if i == 3 {
					return 0, boom
				}
				return i, nil
			},
		}
	}
	if _, err := Run(context.Background(), New(2), jobs); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the job error", err)
	}
}

func TestSeedForIsStable(t *testing.T) {
	a := SeedFor("key")
	if a != SeedFor("key") {
		t.Fatal("SeedFor must be deterministic")
	}
	if a == SeedFor("other") {
		t.Fatal("SeedFor must depend on the key")
	}
}

// A job's rng builds its source on the first draw, yet must give exactly
// the values of rand.NewSource(SeedFor(key)): through Int63, Uint64,
// Float64 and Intn, whichever draws first, and again after Seed.  The
// compiled Monte Carlo captures its stream through Uint64, and the dense
// goldens rest on this stream.
func TestJobRNGMatchesMathRand(t *testing.T) {
	draw := func(r *rand.Rand) []uint64 {
		var out []uint64
		for round, seed := range []int64{7, -3, 1 << 40} {
			for i := 0; i < 700; i++ {
				switch (i + round) % 4 {
				case 0:
					out = append(out, uint64(r.Int63()))
				case 1:
					out = append(out, r.Uint64())
				case 2:
					out = append(out, math.Float64bits(r.Float64()))
				default:
					out = append(out, uint64(r.Intn(1+i*i)))
				}
			}
			r.Seed(seed)
		}
		return out
	}
	const key = "rng-stream"
	got, err := Run(context.Background(), New(1), []Job[[]uint64]{{
		Key: key,
		Run: func(_ context.Context, rng *rand.Rand) ([]uint64, error) { return draw(rng), nil },
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := draw(rand.New(rand.NewSource(SeedFor(key))))
	for i := range want {
		if got[0][i] != want[i] {
			t.Fatalf("draw %d: job rng gave %d, math/rand %d", i, got[0][i], want[i])
		}
	}
}

func TestFingerprint(t *testing.T) {
	got := Fingerprint("mc", 3, 1.5)
	if got != "mc|3|1.5" {
		t.Fatalf("Fingerprint = %q", got)
	}
}

func TestProgressReporting(t *testing.T) {
	var calls atomic.Int32
	var lastDone atomic.Int32
	e := New(3)
	e.Progress = func(done, total int, key, traceID string) {
		calls.Add(1)
		lastDone.Store(int32(done))
		if total != 10 {
			t.Errorf("total = %d, want 10", total)
		}
		if key == "" {
			t.Error("progress key must not be empty")
		}
		if traceID != "" {
			t.Errorf("untraced batch reported trace ID %q", traceID)
		}
	}
	jobs := make([]Job[int], 10)
	for i := range jobs {
		jobs[i] = Job[int]{
			Key: Fingerprint("progress", i),
			Run: func(context.Context, *rand.Rand) (int, error) { return 0, nil },
		}
	}
	if _, err := Run(context.Background(), e, jobs); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 10 || lastDone.Load() != 10 {
		t.Fatalf("progress calls = %d (last done %d), want 10/10", calls.Load(), lastDone.Load())
	}
}

func TestRunEmptyBatch(t *testing.T) {
	out, err := Run[int](context.Background(), New(4), nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := rngJobs(4)
	if _, err := Run(ctx, New(2), jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Run = %v, want context.Canceled", err)
	}
}

// The engine must support nested Run calls from inside jobs (the Monte Carlo
// path fans out chunks from within a per-protocol job).
func TestNestedRun(t *testing.T) {
	e := New(4)
	outer := make([]Job[int], 4)
	for i := range outer {
		i := i
		outer[i] = Job[int]{
			Key: Fingerprint("outer", i),
			Run: func(ctx context.Context, _ *rand.Rand) (int, error) {
				inner := make([]Job[int], 4)
				for j := range inner {
					j := j
					inner[j] = Job[int]{
						Key: Fingerprint("inner", i, j),
						Run: func(context.Context, *rand.Rand) (int, error) { return i*10 + j, nil },
					}
				}
				vals, err := Run(ctx, e, inner)
				if err != nil {
					return 0, err
				}
				sum := 0
				for _, v := range vals {
					sum += v
				}
				return sum, nil
			},
		}
	}
	out, err := Run(context.Background(), e, outer)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		want := i*40 + 6
		if v != want {
			t.Fatalf("outer[%d] = %d, want %d", i, v, want)
		}
	}
}

func ExampleFingerprint() {
	fmt.Println(Fingerprint("noise.mc", "verify-only", 42, 0))
	// Output: noise.mc|verify-only|42|0
}

// The worker bound is engine-wide: nested Run calls reuse their caller's
// slot instead of stacking fresh pools, so total concurrency never exceeds
// Workers.
func TestNestedRunRespectsWorkerBudget(t *testing.T) {
	const workers = 3
	e := New(workers)
	var cur, peak atomic.Int32
	enter := func() {
		c := cur.Add(1)
		for {
			m := peak.Load()
			if c <= m || peak.CompareAndSwap(m, c) {
				break
			}
		}
	}
	leave := func() { cur.Add(-1) }
	outer := make([]Job[int], 8)
	for i := range outer {
		i := i
		outer[i] = Job[int]{
			Key: Fingerprint("budget-outer", i),
			Run: func(ctx context.Context, _ *rand.Rand) (int, error) {
				inner := make([]Job[int], 8)
				for j := range inner {
					j := j
					inner[j] = Job[int]{
						Key: Fingerprint("budget-inner", i, j),
						Run: func(context.Context, *rand.Rand) (int, error) {
							enter()
							defer leave()
							time.Sleep(2 * time.Millisecond)
							return 0, nil
						},
					}
				}
				_, err := Run(ctx, e, inner)
				return 0, err
			},
		}
	}
	if _, err := Run(context.Background(), e, outer); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeded the engine-wide budget of %d", p, workers)
	}
}

// TestSingleflightCoalesces starts two concurrent batches computing the same
// slow job key on one engine and asserts the job body runs once: the second
// batch waits on the in-flight computation instead of duplicating it.
func TestSingleflightCoalesces(t *testing.T) {
	eng := New(4)
	var computes atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	slow := func(first bool) []Job[int] {
		return []Job[int]{{
			Key: "singleflight-job",
			Run: func(context.Context, *rand.Rand) (int, error) {
				computes.Add(1)
				if first {
					close(started)
					<-release
				}
				return 42, nil
			},
		}}
	}
	firstDone := make(chan error, 1)
	var firstOut []int
	go func() {
		out, err := Run(context.Background(), eng, slow(true))
		firstOut = out
		firstDone <- err
	}()
	<-started
	secondDone := make(chan error, 1)
	var secondOut []int
	go func() {
		out, err := Run(context.Background(), eng, slow(false))
		secondOut = out
		secondDone <- err
	}()
	// Wait until the second batch has joined the flight, then release the
	// leader.
	deadline := time.After(5 * time.Second)
	for eng.Coalesced() == 0 {
		select {
		case <-deadline:
			t.Fatal("second batch never joined the in-flight job")
		case err := <-secondDone:
			t.Fatalf("second batch finished before the leader (err=%v)", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if err := <-secondDone; err != nil {
		t.Fatal(err)
	}
	if firstOut[0] != 42 || secondOut[0] != 42 {
		t.Fatalf("results = %v, %v; want 42, 42", firstOut, secondOut)
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("job body ran %d times; want 1", got)
	}
	if eng.Coalesced() != 1 {
		t.Errorf("Coalesced() = %d; want 1", eng.Coalesced())
	}
}

// TestEachKeyComputedOnce races eight batches of one fresh key on an
// eight-worker engine, for 2,000 keys, and requires each key's job body to
// run once: a job that looks the key up just as another settles it must be
// served the kept result, not compute it again.
func TestEachKeyComputedOnce(t *testing.T) {
	const keys, batches = 2000, 8
	eng := New(batches)
	for k := 0; k < keys; k++ {
		var runs atomic.Int32
		job := Job[int]{
			Key: Fingerprint("once", k),
			Run: func(context.Context, *rand.Rand) (int, error) {
				runs.Add(1)
				return k, nil
			},
		}
		var wg sync.WaitGroup
		for b := 0; b < batches; b++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, err := Run(context.Background(), eng, []Job[int]{job})
				if err != nil || out[0] != k {
					t.Errorf("key %d: Run = %v, %v", k, out, err)
				}
			}()
		}
		wg.Wait()
		if n := runs.Load(); n != 1 {
			t.Fatalf("key %d computed %d times, want 1", k, n)
		}
	}
}

// TestSingleflightPropagatesError ensures a coalesced follower receives the
// leader's error instead of hanging or recomputing.
func TestSingleflightPropagatesError(t *testing.T) {
	eng := New(4)
	boom := errors.New("boom")
	started := make(chan struct{})
	release := make(chan struct{})
	leaderJobs := []Job[int]{{
		Key: "singleflight-err",
		Run: func(context.Context, *rand.Rand) (int, error) {
			close(started)
			<-release
			return 0, boom
		},
	}}
	followerJobs := []Job[int]{{
		Key: "singleflight-err",
		Run: func(context.Context, *rand.Rand) (int, error) {
			t.Error("follower should not recompute")
			return 0, nil
		},
	}}
	firstDone := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), eng, leaderJobs)
		firstDone <- err
	}()
	<-started
	secondDone := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), eng, followerJobs)
		secondDone <- err
	}()
	deadline := time.After(5 * time.Second)
	for eng.Coalesced() == 0 {
		select {
		case <-deadline:
			t.Fatal("follower never joined")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	if err := <-firstDone; !errors.Is(err, boom) {
		t.Errorf("leader error = %v; want boom", err)
	}
	if err := <-secondDone; !errors.Is(err, boom) {
		t.Errorf("follower error = %v; want boom", err)
	}
}

// TestSingleflightSettlesOnPanic ensures a panicking leader releases its
// flight so later identical jobs do not hang on a stale entry.
func TestSingleflightSettlesOnPanic(t *testing.T) {
	eng := New(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the job panic to propagate")
			}
		}()
		Run(context.Background(), eng, []Job[int]{{
			Key: "panic-job",
			Run: func(context.Context, *rand.Rand) (int, error) { panic("kaboom") },
		}})
	}()
	done := make(chan int, 1)
	go func() {
		out, err := Run(context.Background(), eng, []Job[int]{{
			Key: "panic-job",
			Run: func(context.Context, *rand.Rand) (int, error) { return 7, nil },
		}})
		if err != nil {
			done <- -1
			return
		}
		done <- out[0]
	}()
	select {
	case v := <-done:
		if v != 7 {
			t.Errorf("second run returned %d; want 7", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second run hung on a stale flight")
	}
}

// TestCacheLimitEvicts caps the memoisation cache and checks insertions
// beyond the limit evict rather than grow.
func TestCacheLimitEvicts(t *testing.T) {
	eng := New(1)
	eng.CacheLimit = 4
	jobs := make([]Job[int], 10)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: Fingerprint("evict", i),
			Run: func(context.Context, *rand.Rand) (int, error) { return i, nil },
		}
	}
	if _, err := Run(context.Background(), eng, jobs); err != nil {
		t.Fatal(err)
	}
	if size := eng.Tiers().MemoryEntries; size > 4 {
		t.Errorf("cache grew to %d entries despite limit 4", size)
	}
}

func TestPublishPartial(t *testing.T) {
	type rec struct {
		key string
		seq int
		val any
	}
	var got []rec
	e := New(2)
	e.Partial = func(key string, seq int, value any) {
		got = append(got, rec{key, seq, value})
	}
	e.PublishPartial("exp", 1, 10)
	e.PublishPartial("exp", 2, 20)
	want := []rec{{"exp", 1, 10}, {"exp", 2, 20}}
	if len(got) != len(want) {
		t.Fatalf("published %d partials, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("partial %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// No callback installed and nil engines are safe no-ops.
	New(1).PublishPartial("exp", 1, nil)
	var nilEngine *Engine
	nilEngine.PublishPartial("exp", 1, nil)
}

// TestSingleflightLeaderCancelledReleasesFollowers cancels the leader of an
// in-flight key mid-job: followers coalesced onto that flight must receive
// the cancellation error promptly instead of hanging, and the flight must be
// settled so a later identical job computes fresh.
func TestSingleflightLeaderCancelledReleasesFollowers(t *testing.T) {
	eng := New(4)
	started := make(chan struct{})
	var reusable atomic.Bool
	jobs := func(first bool) []Job[int] {
		return []Job[int]{{
			Key: "cancel-leader",
			Run: func(ctx context.Context, _ *rand.Rand) (int, error) {
				if reusable.Load() {
					return 7, nil
				}
				if first {
					close(started)
				}
				<-ctx.Done()
				return 0, ctx.Err()
			},
		}}
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan error, 1)
	go func() {
		_, err := Run(leaderCtx, eng, jobs(true))
		leaderDone <- err
	}()
	<-started
	// The follower's own context stays live: the error it sees must be the
	// settled flight's, not its own cancellation.
	followerDone := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), eng, jobs(false))
		followerDone <- err
	}()
	deadline := time.After(5 * time.Second)
	for eng.Coalesced() == 0 {
		select {
		case <-deadline:
			t.Fatal("follower never joined the flight")
		case err := <-followerDone:
			t.Fatalf("follower finished before the leader was cancelled (err=%v)", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Errorf("leader error = %v; want context.Canceled", err)
	}
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("follower error = %v; want the leader's context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower hung after the leader was cancelled")
	}
	// The flight must be settled: a fresh identical job computes and succeeds
	// rather than waiting on a stale entry or being served a cached error.
	reusable.Store(true)
	retryDone := make(chan error, 1)
	var out []int
	go func() {
		o, err := Run(context.Background(), eng, jobs(false))
		out = o
		retryDone <- err
	}()
	select {
	case err := <-retryDone:
		if err != nil || out[0] != 7 {
			t.Errorf("retry after cancellation: out=%v err=%v; want 7, nil", out, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry hung on a stale flight after leader cancellation")
	}
}

// TestSingleflightFollowerCancelledLeaderCompletes cancels only the follower:
// the follower's batch must return its own context error promptly while the
// leader keeps computing, completes, and populates the cache.
func TestSingleflightFollowerCancelledLeaderCompletes(t *testing.T) {
	eng := New(4)
	var computes atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	jobs := func(first bool) []Job[int] {
		return []Job[int]{{
			Key: "cancel-follower",
			Run: func(context.Context, *rand.Rand) (int, error) {
				computes.Add(1)
				if first {
					close(started)
					<-release
				}
				return 11, nil
			},
		}}
	}
	leaderDone := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), eng, jobs(true))
		leaderDone <- err
	}()
	<-started
	followerCtx, cancelFollower := context.WithCancel(context.Background())
	defer cancelFollower()
	followerDone := make(chan error, 1)
	go func() {
		_, err := Run(followerCtx, eng, jobs(false))
		followerDone <- err
	}()
	deadline := time.After(5 * time.Second)
	for eng.Coalesced() == 0 {
		select {
		case <-deadline:
			t.Fatal("follower never joined the flight")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancelFollower()
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("follower error = %v; want its own context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower hung while the leader was still running")
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after follower cancellation: %v", err)
	}
	// The leader's result is cached: a repeat run is a cache hit, not a
	// recomputation.
	hits0 := eng.Tiers().MemoryHits
	out, err := Run(context.Background(), eng, jobs(false))
	if err != nil || out[0] != 11 {
		t.Fatalf("repeat run: out=%v err=%v; want 11, nil", out, err)
	}
	if hits1 := eng.Tiers().MemoryHits; hits1 <= hits0 {
		t.Errorf("repeat run missed the cache: hits %d -> %d", hits0, hits1)
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("job body ran %d times; want 1 (leader only)", got)
	}
}

// TestInFlightGauge tracks the running-job gauge around a blocked job.
func TestInFlightGauge(t *testing.T) {
	eng := New(2)
	if got := eng.InFlight(); got != 0 {
		t.Fatalf("idle engine InFlight() = %d; want 0", got)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), eng, []Job[int]{{
			Key: "inflight-job",
			Run: func(context.Context, *rand.Rand) (int, error) {
				close(started)
				<-release
				return 1, nil
			},
		}})
		done <- err
	}()
	<-started
	if got := eng.InFlight(); got != 1 {
		t.Errorf("InFlight() during a running job = %d; want 1", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := eng.InFlight(); got != 0 {
		t.Errorf("InFlight() after drain = %d; want 0", got)
	}
	// A cache-served repeat never touches the gauge; nil engines report zero.
	if _, err := Run(context.Background(), eng, []Job[int]{{
		Key: "inflight-job",
		Run: func(context.Context, *rand.Rand) (int, error) { return 1, nil },
	}}); err != nil {
		t.Fatal(err)
	}
	if got := eng.InFlight(); got != 0 {
		t.Errorf("InFlight() after cache hit = %d; want 0", got)
	}
	var nilEngine *Engine
	if got := nilEngine.InFlight(); got != 0 {
		t.Errorf("nil engine InFlight() = %d; want 0", got)
	}
}
