package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strconv"
	"time"

	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/obs"
	"speedofdata/internal/report"
	"speedofdata/internal/server"
	"speedofdata/internal/store"
)

// serveCacheLimit is the memory tier `qsd serve` runs with.
const serveCacheLimit = 1 << 14

// Every N-th response is checked byte for byte: serve-cold's against a fresh
// memory-only server, serve-warm's against the body recorded at set-up.
const (
	coldCheckEvery = 25
	warmCheckEvery = 64
)

// The experiments, benchmarks and architectures the serving mix draws from.
var (
	mixIDs     = []string{"fig4", "fig15buf", "netsweep", "netfault", "contention"}
	benchNames = []string{"QRCA", "QCLA", "QFT"}
	archNames  = []string{"QLA", "GQLA", "CQLA", "GCQLA", "Fully-Multiplexed"}
)

// serveRequest is one generated request: the experiment and parameters the
// benchmark drew, and the URL path they are sent as.
type serveRequest struct {
	id   string
	bits int
	p    core.RunParams
	path string
}

// maxDraws bounds how often coldRequests redraws a request whose URL it has
// already drawn.  Each (experiment, format, benchmark, architecture) class
// of the buffered experiments holds 1024 URLs (fig4's hold 2^40 seeds), so
// only a request count near a class's capacity gets there.
const maxDraws = 1000

// coldRequests draws n requests of the serving mix, all with distinct URLs
// so each one misses the server's result cache at top level: 30% fig4 Monte
// Carlo with a fresh seed, 20% fig15buf, 20% netsweep, 20% netfault and 10%
// contention, as JSON, text or CSV (70/20/10).  The proportions are exact,
// benchmarks and architectures take turns, and the order of experiments and
// formats is the same for every seed, so every seed offers the same work;
// the seed draws the buffers (1 to 1024) and Monte Carlo seeds
// (non-negative).  The weights and the format split are assumptions about
// traffic, not measurements of it.
func coldRequests(seed int64, n int, sz size) ([]serveRequest, error) {
	order := rand.New(rand.NewSource(1))
	ids := deck(order, n, mixIDs, []int{3, 2, 2, 2, 1})
	formats := deck(order, n, []report.Format{report.FormatJSON, report.FormatText, report.FormatCSV}, []int{7, 2, 1})
	r := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	turn := map[string]int{}
	reqs := make([]serveRequest, 0, n)
	for i, id := range ids {
		k := turn[id]
		turn[id]++
		for draw := 0; ; draw++ {
			if draw == maxDraws {
				return nil, fmt.Errorf("%d requests exhaust the distinct %s URLs of the mix; lower the rate or the seconds", n, id)
			}
			req := newRequest(id, k, formats[i], 1+r.Intn(1024), r.Int63n(1<<40), sz)
			if !seen[req.path] {
				seen[req.path] = true
				reqs = append(reqs, req)
				break
			}
		}
	}
	return reqs, nil
}

// warmUpRequests are one request for every experiment, benchmark and
// architecture of the mix, with buffers and seeds outside the ranges
// coldRequests draws from.  Sent before timing, they fill the nested caches
// (circuits, characterisations) and warm the code paths, as a server that
// has been up for a while would have them.
func warmUpRequests(sz size) []serveRequest {
	var reqs []serveRequest
	for _, id := range mixIDs {
		turns := 1
		switch id {
		case "fig15buf":
			turns = len(benchNames) * len(archNames)
		case "netsweep", "netfault":
			turns = len(benchNames)
		}
		for k := 0; k < turns; k++ {
			reqs = append(reqs, newRequest(id, k, report.FormatJSON, 1025+k, -1-int64(k), sz))
		}
	}
	return reqs
}

// deck returns n items in the given proportions, exact up to rounding, in a
// random order.
func deck[T any](r *rand.Rand, n int, items []T, weights []int) []T {
	total := 0
	for _, w := range weights {
		total += w
	}
	out := make([]T, 0, n)
	for i, it := range items {
		for j := 0; j < n*weights[i]/total; j++ {
			out = append(out, it)
		}
	}
	for i := 0; len(out) < n; i++ {
		out = append(out, items[i])
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// newRequest builds the k-th request of experiment id.  fig4 takes the
// Monte Carlo seed, the others the buffer.
func newRequest(id string, k int, f report.Format, buffer int, seed int64, sz size) serveRequest {
	q := url.Values{"bits": {strconv.Itoa(sz.serveBits)}, "format": {string(f)}}
	p := core.DefaultRunParams()
	switch id {
	case "fig4":
		p.Trials, p.Seed = sz.serveTrials, seed
		q.Set("trials", strconv.Itoa(p.Trials))
		q.Set("seed", strconv.FormatInt(p.Seed, 10))
	case "fig15buf", "netsweep", "netfault":
		p.Benchmark = benchNames[k%len(benchNames)]
		q.Set("benchmark", p.Benchmark)
		if id == "fig15buf" {
			p.Arch = archNames[k%len(archNames)]
			q.Set("arch", p.Arch)
		}
	}
	if id != "fig4" {
		p.Buffer = buffer
		q.Set("buffer", strconv.Itoa(p.Buffer))
	}
	return serveRequest{id: id, bits: sz.serveBits, p: p, path: "/v1/experiments/" + id + "?" + q.Encode()}
}

// warmUp sends the warm-up requests to every server, over at most maxConns
// connections.
func warmUp(c *http.Client, sz size, servers ...*liveServer) error {
	reqs := warmUpRequests(sz)
	var sched []scheduled
	for _, ls := range servers {
		for _, r := range reqs {
			sched = append(sched, scheduled{url: ls.base + r.path})
		}
	}
	for i, s := range openLoop(c, sched, func(int) bool { return false }) {
		if !s.ok() {
			return fmt.Errorf("warm-up %s: status %d, %v", sched[i].url, s.status, s.err)
		}
	}
	return nil
}

// poissonSchedule spreads n arrivals over d as a Poisson process conditioned
// on its count: independent uniform arrival times, sorted.  The times are the
// same for every seed, like the order of experiments in coldRequests: a seed
// changes what is asked, not when, so runs with different seeds queue alike.
func poissonSchedule(n int, d time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(0x5eed))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(r.Float64() * float64(d))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// liveServer is an in-process server built the way `qsd serve -store`
// builds it, listening on a loopback port.
type liveServer struct {
	base  string
	eng   *engine.Engine
	store *store.Store
	srv   *http.Server
	done  chan error
}

// startServer opens the store in dir (none when dir is empty) behind a fresh
// engine and serves the experiment API on it.  o, when set, turns the
// observability layer on.
func startServer(dir string, readOnly bool, o *obs.Obs) (*liveServer, error) {
	eng := engine.New(0)
	eng.CacheLimit = serveCacheLimit
	ls := &liveServer{eng: eng, done: make(chan error, 1)}
	if dir != "" {
		st, err := store.Open(dir, store.Options{ReadOnly: readOnly})
		if err != nil {
			return nil, err
		}
		ls.store = st
		eng.Backend = st
	}
	e := core.NewExperiments()
	e.Engine = eng
	h := server.NewWithConfig(e, core.DefaultRunParams(), server.Config{Obs: o})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if ls.store != nil {
			ls.store.Close()
		}
		return nil, err
	}
	ls.base = "http://" + ln.Addr().String()
	ls.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { ls.done <- ls.srv.Serve(ln) }()
	return ls, nil
}

// close stops the server, waits for it, and closes its store.
func (s *liveServer) close() error {
	err := s.srv.Close()
	<-s.done
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// setUpServer starts a server on the store directory that dir returns and
// readies it with ready, reps times.  The median time is the workload's
// set-up time; the last server stays up for the run.
func setUpServer(dir func() (string, error), reps int, ready func(*liveServer) error) (*liveServer, float64, error) {
	var ls *liveServer
	var times []float64
	for i := 0; i < reps; i++ {
		if ls != nil {
			if err := ls.close(); err != nil {
				return nil, 0, err
			}
		}
		t := time.Now()
		d, err := dir()
		if err != nil {
			return nil, 0, err
		}
		if ls, err = startServer(d, false, nil); err != nil {
			return nil, 0, err
		}
		if err := ready(ls); err != nil {
			ls.close()
			return nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return ls, median(times), nil
}

// healthCheck makes a first round trip to a server.
func healthCheck(c *http.Client) func(*liveServer) error {
	return func(ls *liveServer) error {
		var buf bytes.Buffer
		if r := get(c, ls.base+"/v1/healthz", &buf); !r.ok() {
			return fmt.Errorf("server health check: status %d, %v", r.status, r.err)
		}
		return nil
	}
}

// serveLayerInput computes the documents of the first few requests directly,
// for the layer timings of a traced serving run.
func serveLayerInput(reqs []serveRequest, sz size, seed int64) (layerInput, error) {
	eng := engine.New(0)
	var docs []report.Document
	for _, r := range reqs[:min(8, len(reqs))] {
		e := core.NewExperiments()
		e.Bits = r.bits
		e.Engine = eng
		doc, err := core.RunReport(context.Background(), e, r.p, []string{r.id})
		if err != nil {
			return layerInput{}, fmt.Errorf("%s: %w", r.path, err)
		}
		docs = append(docs, doc)
	}
	return layerInput{bits: sz.serveBits, seed: seed, docs: docs, url: reqs[0].path,
		reps: sz.layerReps, trials: sz.noiseTrials}, nil
}

// latencies returns the latencies of the successful samples in ms and the
// time the last one completed.
func latencies(samples []sample) (lat []float64, last time.Duration) {
	for _, s := range samples {
		if s.ok() {
			lat = append(lat, ms(s.latency()))
			last = max(last, s.done)
		}
	}
	return lat, last
}

// serveColdRun is the open-loop run: Poisson arrivals at sz.rate, each a
// URL the server has never seen, against a server on a fresh store.
func serveColdRun(sz size, seed int64, log io.Writer) (*outcome, error) {
	out := newOutcome()
	n := int(math.Round(sz.rate * sz.window.Seconds()))
	reqs, err := coldRequests(seed, n, sz)
	if err != nil {
		return nil, err
	}
	due := poissonSchedule(n, sz.window)
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	root, err := os.MkdirTemp("", "qsdbench-cold-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	freshDir := func() (string, error) { return os.MkdirTemp(root, "store-") }
	ls, setupS, err := setUpServer(freshDir, sz.setups, func(ls *liveServer) error { return warmUp(c, sz, ls) })
	if err != nil {
		return nil, err
	}
	defer ls.close()
	sched := make([]scheduled, n)
	for i := range sched {
		sched[i] = scheduled{url: ls.base + reqs[i].path, due: due[i]}
	}
	samples := openLoop(c, sched, func(i int) bool { return i%coldCheckEvery == 0 })

	// Every checked response must equal what a fresh memory-only server
	// answers for the same URL.
	e := core.NewExperiments()
	e.Engine = engine.New(0)
	fresh := server.New(e, core.DefaultRunParams())
	for i, s := range samples {
		out.attempted++
		if !s.ok() {
			out.failed++
			continue
		}
		if i%coldCheckEvery != 0 {
			continue
		}
		rec := httptest.NewRecorder()
		fresh.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, reqs[i].path, nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), s.body) {
			out.failed++
			out.problem("serve-cold: %s differs from a fresh server's answer", reqs[i].path)
		}
	}
	lat, last := latencies(samples)
	fmt.Fprintf(log, "serve-cold: %d requests, tail percentile p90 (p%.1f supported by the sample count)\n",
		len(lat), 100*supportedQuantile(len(lat)))
	m := out.metrics
	m["setup_s"] = setupS
	m["latency_p50_ms"] = median(lat)
	m["latency_tail_ms"] = quantile(lat, 0.9)
	m["throughput_per_s"] = float64(len(lat)) / last.Seconds()
	return out, nil
}

// serveColdTrace replays the first half-window of serve-cold's schedule,
// alternating requests between an untraced server and a traced one, each on
// its own fresh store.
func serveColdTrace(sz size, seed int64, log io.Writer) (*outcome, error) {
	out := newOutcome()
	window := sz.window / 2
	n := max(2, int(math.Round(sz.rate*window.Seconds())))
	reqs, err := coldRequests(seed, n, sz)
	if err != nil {
		return nil, err
	}
	due := poissonSchedule(n, window)
	lc := newLayerCounters()
	o := &obs.Obs{Registry: lc.reg, Tracer: obs.NewTracer(n)}
	var servers [2]*liveServer
	for i := range servers {
		dir, err := os.MkdirTemp("", "qsdbench-trace-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		var oi *obs.Obs
		if i == 1 {
			oi = o
		}
		if servers[i], err = startServer(dir, false, oi); err != nil {
			return nil, err
		}
		defer servers[i].close()
	}
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	if err := warmUp(c, sz, servers[:]...); err != nil {
		return nil, err
	}
	sched := make([]scheduled, n)
	for i := range sched {
		sched[i] = scheduled{url: servers[i%2].base + reqs[i].path, due: due[i]}
	}
	before, server0, cpu0, t0 := lc.read(), servers[1].counts(), cpuTime(), time.Now()
	samples := openLoop(c, sched, func(int) bool { return false })
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	delta := lc.read().minus(before)

	st := newSpanStats()
	var plain, traced, overhead, late []float64
	shed := 0
	for i, s := range samples {
		out.attempted++
		late = append(late, ms(s.late()))
		if s.status == http.StatusTooManyRequests {
			shed++
		}
		if !s.ok() {
			out.failed++
			continue
		}
		if i%2 == 0 {
			plain = append(plain, ms(s.latency()))
			continue
		}
		traced = append(traced, ms(s.latency()))
		tr, ok := o.Tracer.Get(s.traceID)
		if !ok {
			return nil, fmt.Errorf("serve-cold: no finished trace %q", s.traceID)
		}
		st.add(tr)
		overhead = append(overhead, us(s.done-s.sent)-us(tr.End().Sub(tr.Start())))
	}
	m := out.metrics
	serveTraceMetrics(m, st, delta, servers[1], server0, n, n/2)
	m["obs.overhead_frac"] = mean(traced)/mean(plain) - 1
	m["server.shed_frac"] = float64(shed) / float64(n)
	m["http.overhead_us"] = median(overhead)
	m["engine.parallelism"] = ratio(float64(cpu), float64(wall))
	m["bench.cpu_per_op_s"] = cpu.Seconds() / float64(n)
	m["bench.gen_late_p99_ms"] = quantile(late, 0.99)
	in, err := serveLayerInput(reqs, sz, seed)
	if err != nil {
		return nil, err
	}
	return out, layerMetrics(in, m)
}

// serverCounts is a reading of a server's engine and store counters.
type serverCounts struct {
	tiers     engine.TierStats
	coalesced int
	store     engine.BackendStats
}

func (s *liveServer) counts() serverCounts {
	return serverCounts{tiers: s.eng.Tiers(), coalesced: s.eng.Coalesced(), store: s.store.Stats()}
}

// serveTraceMetrics writes the span, counter, engine and store metrics of a
// traced serving replay: n requests in all, tracedN of them to the traced
// server ts, whose counters read before at the start of the replay.
func serveTraceMetrics(m map[string]float64, st *spanStats, delta counts, ts *liveServer, before serverCounts, n, tracedN int) {
	st.perOp(m)
	delta.perOp(m, n)
	tn := float64(max(tracedN, 1))
	now := ts.counts()
	hits := float64(now.tiers.MemoryHits - before.tiers.MemoryHits)
	misses := float64(now.tiers.MemoryMisses - before.tiers.MemoryMisses)
	storeHits := float64(now.tiers.StoreHits - before.tiers.StoreHits)
	storeMisses := float64(now.tiers.StoreMisses - before.tiers.StoreMisses)
	puts := float64(now.store.Puts - before.store.Puts)
	skipped := float64(now.store.Skipped - before.store.Skipped)
	m["engine.jobs_computed_per_op"] = delta.engineJobs / tn
	m["engine.mem_hit_ratio"] = ratio(hits, hits+misses)
	m["engine.store_hit_ratio"] = ratio(storeHits, storeHits+storeMisses)
	m["engine.coalesced_per_op"] = float64(now.coalesced-before.coalesced) / tn
	m["server.nonjob_frac"] = ratio(float64(st.rootSelf), float64(st.rootTotal))
	m["store.puts_per_request"] = puts / tn
	m["store.put_skipped_frac"] = ratio(skipped, puts+skipped)
}

// populate computes every request once on a server over dir, records each
// response body by path, and stops the server.
func populate(c *http.Client, dir string, reqs []serveRequest) (map[string][]byte, error) {
	ls, err := startServer(dir, false, nil)
	if err != nil {
		return nil, err
	}
	sched := make([]scheduled, len(reqs))
	for i, r := range reqs {
		sched[i] = scheduled{url: ls.base + r.path}
	}
	samples := openLoop(c, sched, func(int) bool { return true })
	if err := ls.close(); err != nil {
		return nil, err
	}
	bodies := make(map[string][]byte, len(reqs))
	for i, s := range samples {
		if !s.ok() {
			return nil, fmt.Errorf("populate %s: status %d, %v", reqs[i].path, s.status, s.err)
		}
		bodies[reqs[i].path] = s.body
	}
	return bodies, nil
}

// zipfPicker draws request indices for closed-loop client k: Zipf(1.1) over
// n URLs, so a few are hot and the rest form a long tail.  The exponent is
// an assumption about traffic, not a measurement of it.
func zipfPicker(seed int64, k, n int) *rand.Zipf {
	r := rand.New(rand.NewSource(seed*1000003 + int64(k)))
	return rand.NewZipf(r, 1.1, 1, uint64(n-1))
}

// serveWarmRun is the closed-loop run over the URLs serve-cold's generator
// draws for sz.warmURLs requests, computed into a store at set-up; the run
// restarts on that store.
func serveWarmRun(sz size, seed int64, log io.Writer) (*outcome, error) {
	out := newOutcome()
	reqs, err := coldRequests(seed, sz.warmURLs, sz)
	if err != nil {
		return nil, err
	}
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	dir, err := os.MkdirTemp("", "qsdbench-warm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := time.Now()
	bodies, err := populate(c, dir, reqs)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "serve-warm: computed %d URLs into the store in %.2f s\n", len(reqs), time.Since(t).Seconds())
	ls, setupS, err := setUpServer(func() (string, error) { return dir, nil }, sz.restarts, healthCheck(c))
	if err != nil {
		return nil, err
	}
	defer ls.close()

	k := maxConns()
	pick := make([]*rand.Zipf, k)
	lat := make([][]float64, k)
	failed := make([]int, k)
	for i := range pick {
		pick[i] = zipfPicker(seed, i, len(reqs))
	}
	urls := make([]string, len(reqs))
	for i, r := range reqs {
		urls[i] = ls.base + r.path
	}
	t0 := time.Now()
	closedLoop(c, k, sz.window, 0,
		func(client, _ int) string { return urls[pick[client].Uint64()] },
		func(client, n int, u string, r response, d time.Duration, body []byte) {
			if !r.ok() || (n%warmCheckEvery == 0 && !bytes.Equal(body, bodies[u[len(ls.base):]])) {
				failed[client]++
				return
			}
			lat[client] = append(lat[client], ms(d))
		})
	wall := time.Since(t0)
	var all []float64
	for i := range lat {
		all = append(all, lat[i]...)
		out.failed += failed[i]
	}
	out.attempted = len(all) + out.failed
	fmt.Fprintf(log, "serve-warm: %d requests, tail percentile p99 (p%.2f supported by the sample count)\n",
		len(all), 100*supportedQuantile(len(all)))
	m := out.metrics
	m["setup_s"] = setupS
	m["latency_p50_ms"] = median(all)
	m["latency_tail_ms"] = quantile(all, 0.99)
	m["throughput_per_s"] = float64(len(all)) / wall.Seconds()
	return out, nil
}

// serveWarmTrace replays a fixed number of serve-warm requests, alternating
// between an untraced server and a traced one, both restarted on the
// populated store.
func serveWarmTrace(sz size, seed int64, log io.Writer) (*outcome, error) {
	out := newOutcome()
	reqs, err := coldRequests(seed, sz.warmURLs, sz)
	if err != nil {
		return nil, err
	}
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	dir, err := os.MkdirTemp("", "qsdbench-warm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bodies, err := populate(c, dir, reqs)
	if err != nil {
		return nil, err
	}
	lc := newLayerCounters()
	o := &obs.Obs{Registry: lc.reg, Tracer: obs.NewTracer(sz.warmTraceRequests)}
	var servers [2]*liveServer
	for i := range servers {
		var oi *obs.Obs
		if i == 1 {
			oi = o
		}
		// The traced server borrows the store read-only: one writer per
		// directory.
		if servers[i], err = startServer(dir, i == 1, oi); err != nil {
			return nil, err
		}
		defer servers[i].close()
	}

	k := maxConns()
	per := max(2, sz.warmTraceRequests/k)
	type tracedReq struct {
		id      string
		latency time.Duration
	}
	pick := make([]*rand.Zipf, k)
	plain := make([][]float64, k)
	traced := make([][]tracedReq, k)
	failed, shed := make([]int, k), make([]int, k)
	for i := range pick {
		pick[i] = zipfPicker(seed, i, len(reqs))
	}
	before, server0, cpu0, t0 := lc.read(), servers[1].counts(), cpuTime(), time.Now()
	closedLoop(c, k, 0, per,
		func(client, n int) string { return servers[n%2].base + reqs[pick[client].Uint64()].path },
		func(client, n int, u string, r response, d time.Duration, body []byte) {
			base := servers[n%2].base
			if r.status == http.StatusTooManyRequests {
				shed[client]++
			}
			if !r.ok() || (n%warmCheckEvery == 0 && !bytes.Equal(body, bodies[u[len(base):]])) {
				failed[client]++
				return
			}
			if n%2 == 0 {
				plain[client] = append(plain[client], ms(d))
			} else {
				traced[client] = append(traced[client], tracedReq{r.traceID, d})
			}
		})
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	delta := lc.read().minus(before)

	st := newSpanStats()
	var plainAll, tracedAll, overhead []float64
	shedAll := 0
	for i := 0; i < k; i++ {
		plainAll = append(plainAll, plain[i]...)
		for _, t := range traced[i] {
			tr, ok := o.Tracer.Get(t.id)
			if !ok {
				return nil, fmt.Errorf("serve-warm: no finished trace %q", t.id)
			}
			st.add(tr)
			tracedAll = append(tracedAll, ms(t.latency))
			overhead = append(overhead, us(t.latency)-us(tr.End().Sub(tr.Start())))
		}
		out.failed += failed[i]
		shedAll += shed[i]
	}
	n := k * per
	out.attempted = n
	m := out.metrics
	serveTraceMetrics(m, st, delta, servers[1], server0, n, len(tracedAll))
	m["obs.overhead_frac"] = mean(tracedAll)/mean(plainAll) - 1
	m["server.shed_frac"] = float64(shedAll) / float64(n)
	m["http.overhead_us"] = median(overhead)
	m["engine.parallelism"] = ratio(float64(cpu), float64(wall))
	m["bench.cpu_per_op_s"] = cpu.Seconds() / float64(n)
	m["bench.gen_late_p99_ms"] = 0
	in, err := serveLayerInput(reqs, sz, seed)
	if err != nil {
		return nil, err
	}
	return out, layerMetrics(in, m)
}
