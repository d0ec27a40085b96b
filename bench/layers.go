package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"speedofdata/internal/circuits"
	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/factory"
	"speedofdata/internal/fowler"
	"speedofdata/internal/microarch"
	"speedofdata/internal/network"
	"speedofdata/internal/noise"
	"speedofdata/internal/report"
	"speedofdata/internal/schedule"
	"speedofdata/internal/server"
	"speedofdata/internal/steane"
	"speedofdata/internal/store"
)

// layerInput is what the direct layer calls take from a workload, so each
// layer is timed on the inputs that workload feeds it.
type layerInput struct {
	bits int
	seed int64
	// docs are documents the workload produces; url is a request path it
	// sends, timed warm through the HTTP handler.
	docs []report.Document
	url  string
	// reps is how often each timing repeats (the median is kept); trials is
	// the dense Monte Carlo budget per protocol (the faster executors run
	// ten times as many).
	reps, trials int
}

// layerMetrics times direct calls into every layer.
func layerMetrics(in layerInput, m map[string]float64) error {
	for _, f := range []func(layerInput, map[string]float64) error{
		timeCircuits, timeSimulators, timeNetwork, timeNoise, timeEngine, timeStore, timeReport, timeHandler,
	} {
		if err := f(in, m); err != nil {
			return err
		}
	}
	return nil
}

// timed runs f reps times and returns the median duration.
func timed(reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t)))
	}
	return time.Duration(median(ds)), nil
}

// timeCircuits times circuit generation, DAG construction and the
// speed-of-data characterisation of the three benchmarks, plus the factory
// pipeline simulation and the rotation-synthesis search.
func timeCircuits(in layerInput, m map[string]float64) error {
	lat := core.DefaultOptions().Latency
	var gen, dag, char []float64
	for r := 0; r < in.reps; r++ {
		var g, d, c time.Duration
		for _, b := range circuits.Benchmarks() {
			t := time.Now()
			circ, err := circuits.Generate(b, in.bits)
			g += time.Since(t)
			if err != nil {
				return err
			}
			t = time.Now()
			circ.DAG()
			d += time.Since(t)
			t = time.Now()
			if _, err := schedule.Characterize(circ, lat); err != nil {
				return err
			}
			c += time.Since(t)
		}
		gen, dag, char = append(gen, ms(g)), append(dag, ms(d)), append(char, ms(c))
	}
	m["circuits.generate_ms"] = median(gen)
	m["quantum.dag_ms"] = median(dag)
	m["schedule.characterize_ms"] = median(char)

	tech := core.DefaultOptions().Tech
	d, err := timed(in.reps, func() error {
		for _, des := range []factory.Design{factory.PipelinedZeroFactory(tech), factory.Pi8Factory(tech)} {
			if _, err := factory.SimulatePipeline(des, core.FactoryPipelineHorizonMs, core.DefaultBufferAncillae); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["factory.pipeline_ms"] = ms(d)
	d, err = timed(in.reps, func() error {
		for k := 3; k <= 6; k++ {
			fowler.NewSearcher(10).ApproximateRz(k, 1e-9)
		}
		return nil
	})
	m["fowler.search_ms"] = ms(d)
	return err
}

// timeSimulators times the event-driven microarchitecture simulation with a
// finite buffer, the event kernel against the closed form over a Figure 15
// grid (identical results, so the ratio is pure kernel cost), and the
// schedule replay.
func timeSimulators(in layerInput, m map[string]float64) error {
	lat := core.DefaultOptions().Latency
	c, err := circuits.Generate(circuits.QCLA, in.bits)
	if err != nil {
		return err
	}
	cfg := microarch.DefaultConfig(microarch.FullyMultiplexed)
	cfg.BufferAncillae = core.DefaultBufferAncillae
	var events int
	d, err := timed(in.reps, func() error {
		r, err := microarch.Simulate(c, cfg)
		events = r.Events
		return err
	})
	if err != nil {
		return err
	}
	m["microarch.simulate_us"] = us(d)
	m["sim.events_per_s"] = float64(events) / d.Seconds()

	var ratios []float64
	for r := 0; r < in.reps; r++ {
		var event, closed time.Duration
		for _, arch := range microarch.Architectures() {
			for _, scale := range microarch.ScalesFor(arch, 8) {
				g := microarch.DefaultConfig(arch)
				if arch == microarch.FullyMultiplexed {
					g.SharedFactories = scale
				} else {
					g.GeneratorsPerQubit = scale
				}
				t := time.Now()
				if _, err := microarch.SimulateClosedForm(c, g); err != nil {
					return err
				}
				closed += time.Since(t)
				t = time.Now()
				if _, err := microarch.Simulate(c, g); err != nil {
					return err
				}
				event += time.Since(t)
			}
		}
		ratios = append(ratios, float64(event)/float64(closed))
	}
	m["microarch.event_over_closed"] = median(ratios)

	ch, err := schedule.Characterize(c, lat)
	if err != nil {
		return err
	}
	supply := schedule.Supply{RatePerMs: ch.ZeroBandwidthPerMs, BufferAncillae: core.DefaultBufferAncillae}
	var run schedule.ReplayRun
	d, err = timed(in.reps, func() (err error) {
		run, err = schedule.Replay(c, lat, supply)
		return err
	})
	m["schedule.replay_ns_per_event"] = ratio(float64(d.Nanoseconds()), float64(run.Events))
	return err
}

// timeNetwork times one routed-mesh replay on the default 4-tile mesh at
// demand-matched link bandwidth, the way the network scenarios plan it.
func timeNetwork(in layerInput, m map[string]float64) error {
	lat := core.DefaultOptions().Latency
	c, err := circuits.Generate(circuits.QCLA, in.bits)
	if err != nil {
		return err
	}
	ch, err := schedule.Characterize(c, lat)
	if err != nil {
		return err
	}
	cfg, err := network.PlanConfig(lat, c.NumQubits, core.DefaultTiles, ch.ZeroBandwidthPerMs*core.NetSupplyHeadroom, ch.Pi8BandwidthPerMs)
	if err != nil {
		return err
	}
	topo := network.NewTopology(len(cfg.Machine.Tiles))
	part, err := network.PartitionCircuit(c, topo.TileCount())
	if err != nil {
		return err
	}
	cfg.Partitions = []network.Partition{part}
	cfg.LinkEPRPerMs = network.MatchedLinkEPRPerMs(c, lat, topo, part)
	if ceiling := cfg.Machine.LinkEPRPerMs(); cfg.LinkEPRPerMs > ceiling || cfg.LinkEPRPerMs <= 0 {
		cfg.LinkEPRPerMs = ceiling
	}
	cfg.LinkBufferPairs = core.DefaultBufferAncillae
	var run network.ReplayRun
	d, err := timed(in.reps, func() (err error) {
		run, err = network.Replay(c, cfg)
		return err
	})
	if err != nil {
		return err
	}
	r := run.Results[0]
	m["network.replay_ms"] = ms(d)
	m["network.ns_per_event"] = ratio(float64(d.Nanoseconds()), float64(run.Events))
	m["network.blocked_frac"] = ratio(float64(r.NetworkBlocked), float64(r.ExecutionTime))
	return nil
}

// fig4Protocols are the Figure 4 preparation circuits in presentation order.
var fig4Protocols = []string{"basic", "verify-only", "correct-only", "verify-and-correct"}

// timeNoise times each Monte Carlo executor per trial over the Figure 4
// protocols, and counts the dense executor's allocations per trial.
func timeNoise(in layerInput, m map[string]float64) error {
	code := steane.NewCode()
	model := noise.DefaultModel()
	protocols := steane.StandardProtocols(code)
	newSim := func(name string, mode noise.Sampling) (*noise.Simulator, error) {
		s, err := noise.NewSimulator(code, protocols[name], model)
		if err != nil {
			return nil, err
		}
		s.Sampling = mode
		s.MonteCarlo(64, in.seed) // compile the trial program outside the timing
		return s, nil
	}
	for _, ex := range []struct {
		metric string
		mode   noise.Sampling
		trials int
	}{
		{"noise.dense_ns_per_trial", noise.SamplingDense, in.trials},
		{"noise.bitsliced_ns_per_trial", noise.SamplingBitSliced, 10 * in.trials},
		{"noise.sparse_ns_per_trial", noise.SamplingSparse, 10 * in.trials},
	} {
		var per []float64
		for r := 0; r < in.reps; r++ {
			var total time.Duration
			for _, name := range fig4Protocols {
				s, err := newSim(name, ex.mode)
				if err != nil {
					return err
				}
				t := time.Now()
				s.MonteCarlo(ex.trials, in.seed)
				total += time.Since(t)
			}
			per = append(per, float64(total.Nanoseconds())/float64(ex.trials*len(fig4Protocols)))
		}
		m[ex.metric] = median(per)
	}
	s, err := newSim("verify-and-correct", noise.SamplingDense)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.MonteCarlo(in.trials, in.seed)
	runtime.ReadMemStats(&after)
	m["noise.dense_allocs_per_trial"] = float64(after.Mallocs-before.Mallocs) / float64(in.trials)
	return nil
}

// timeEngine times the engine's per-job overhead: a batch of trivial jobs
// computed (miss path, including the cache insert) and then served again
// from the memory tier (hit path).
func timeEngine(in layerInput, m map[string]float64) error {
	const n = 10000
	jobs := make([]engine.Job[int], n)
	for i := range jobs {
		jobs[i] = engine.Job[int]{
			Key: engine.Fingerprint("bench.job", i),
			Run: func(context.Context, *rand.Rand) (int, error) { return i, nil },
		}
	}
	var miss, hit []float64
	for r := 0; r < in.reps; r++ {
		e := engine.New(1)
		for _, out := range []*[]float64{&miss, &hit} {
			t := time.Now()
			if _, err := engine.Run(context.Background(), e, jobs); err != nil {
				return err
			}
			*out = append(*out, float64(time.Since(t).Nanoseconds())/n)
		}
	}
	m["engine.miss_overhead_ns"] = median(miss)
	m["engine.hit_ns"] = median(hit)
	return nil
}

// timeStore writes the workload's report sections to a fresh store, reopens
// it and reads every record back.
func timeStore(in layerInput, m map[string]float64) error {
	var secs []report.Section
	for _, d := range in.docs {
		secs = append(secs, d.Sections...)
	}
	if len(secs) == 0 {
		return fmt.Errorf("store timing: workload produced no sections")
	}
	keys := make([]string, max(200, len(secs)))
	for i := range keys {
		keys[i] = engine.Fingerprint("bench.store", i)
	}
	var put, get, open []float64
	var st engine.BackendStats
	for r := 0; r < in.reps; r++ {
		dir, err := os.MkdirTemp("", "qsdbench-store-")
		if err != nil {
			return err
		}
		err = func() error {
			defer os.RemoveAll(dir)
			s, err := store.Open(dir, store.Options{})
			if err != nil {
				return err
			}
			t := time.Now()
			for i, k := range keys {
				s.Put(k, secs[i%len(secs)])
			}
			put = append(put, us(time.Since(t))/float64(len(keys)))
			st = s.Stats()
			if err := s.Close(); err != nil {
				return err
			}
			t = time.Now()
			s, err = store.Open(dir, store.Options{})
			if err != nil {
				return err
			}
			defer s.Close()
			open = append(open, ms(time.Since(t)))
			t = time.Now()
			for _, k := range keys {
				if _, ok := s.Get(k); !ok {
					return fmt.Errorf("store lost record %s", k)
				}
			}
			get = append(get, us(time.Since(t))/float64(len(keys)))
			return nil
		}()
		if err != nil {
			return err
		}
	}
	m["store.put_us"] = median(put)
	m["store.get_us"] = median(get)
	m["store.open_ms"] = median(open)
	m["store.bytes_per_record"] = ratio(float64(st.LiveBytes), float64(st.Entries))
	return nil
}

// timeReport times each encoding of the workload's documents.
func timeReport(in layerInput, m map[string]float64) error {
	loops := max(1, 100/len(in.docs))
	var buf bytes.Buffer
	for _, f := range []report.Format{report.FormatText, report.FormatJSON, report.FormatCSV} {
		d, err := timed(in.reps, func() error {
			for i := 0; i < loops; i++ {
				for _, doc := range in.docs {
					buf.Reset()
					if err := doc.Encode(&buf, f); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		m["report.encode_"+string(f)+"_us"] = us(d) / float64(loops*len(in.docs))
	}
	size := 0
	for _, doc := range in.docs {
		buf.Reset()
		if err := doc.Encode(&buf, report.FormatJSON); err != nil {
			return err
		}
		size += buf.Len()
	}
	m["report.json_bytes"] = float64(size) / float64(len(in.docs))
	return nil
}

// timeHandler times the server's handler on a warm request (a memory-tier
// hit) called directly, without a network in between.
func timeHandler(in layerInput, m map[string]float64) error {
	e := core.NewExperiments()
	e.Engine = engine.New(0)
	h := server.NewWithConfig(e, core.DefaultRunParams(), server.Config{})
	call := func() error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, in.url, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET %s: status %d: %s", in.url, rec.Code, rec.Body.String())
		}
		return nil
	}
	if err := call(); err != nil {
		return err
	}
	const calls = 200
	d, err := timed(in.reps, func() error {
		for i := 0; i < calls; i++ {
			if err := call(); err != nil {
				return err
			}
		}
		return nil
	})
	m["server.handler_warm_us"] = us(d) / calls
	return err
}
