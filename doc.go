// Package speedofdata is a from-scratch Go reproduction of "Running a Quantum
// Circuit at the Speed of Data" (Isailovic, Whitney, Patel, Kubiatowicz,
// ISCA 2008).
//
// The implementation lives under internal/ and is layered from the quantum IR
// up to the experiment runners; every arrow points downward:
//
//	quantum IR            internal/quantum    — gate set, circuit IR, dataflow DAG
//	    │
//	circuit layer         internal/circuits   — QRCA, QCLA, QFT generators (§3.1)
//	                      internal/steane     — [[7,1,3]] code + ancilla preparation (§2)
//	                      internal/fowler     — H/T synthesis, π/2^k cascade (§2.5)
//	                      internal/factory    — simple/pipelined zero and π/8 factories (§4.3-4.4)
//	    │
//	technology layer      internal/iontrap    — ion-trap latencies, areas in macroblocks (§4.1)
//	                      internal/layout     — data regions, movement, Qalypso tiles (§4.2, §5.3)
//	    │
//	simulation kernel     internal/sim        — deterministic discrete-event kernel: event queue,
//	    │                                       finite-buffer resources, rate producers,
//	    │                                       the one dataflow dispatcher of every replay
//	evaluation layer      internal/microarch  — QLA/CQLA/GQLA/GCQLA/fully-multiplexed sim (§5.2)
//	                      internal/network    — teleportation interconnect: routed 2D mesh,
//	                                            EPR-channel contention, multi-tile replay (§5.3, §6)
//	                      internal/noise      — Monte Carlo / first-order error evaluation (§2.2-2.3)
//	                      internal/schedule   — critical paths, demand profiles, sweeps,
//	                                            event-driven replay and contention (§3.2-3.3)
//	    │
//	experiment engine     internal/engine     — parallel Job/Result runner: worker pool,
//	    │                                       deterministic per-job RNG streams, result cache
//	presentation layer    internal/core       — speed-of-data analysis + experiment registry
//	                      internal/report     — typed tables/series + text, JSON and CSV encoders
//	    │
//	surfaces              cmd/qsd             — batch CLI and `qsd serve`
//	                      internal/server     — HTTP/JSON API + SSE progress stream
//
// Every sweep, grid, and Monte Carlo evaluation is dispatched through
// internal/engine: experiments describe their work as batches of jobs keyed
// by stable input fingerprints, and the engine executes them on a
// GOMAXPROCS-bounded worker pool with context cancellation and an in-memory
// result cache.  Per-job RNG streams are seeded from a hash of the job key,
// so parallel runs are byte-identical to sequential ones — `qsd all
// -parallel 8` and `-parallel 1` print the same report.
//
// The simulation layers execute on internal/sim, a deterministic
// discrete-event kernel.  With infinite buffers its fluid sources reproduce
// the paper's closed-form token-bucket arithmetic bit for bit (the retained
// closed forms are the parity oracles, enforced in CI); finite buffers
// unlock the dynamics the closed forms cannot express — factory pipeline
// stalls, bursty demand against bounded storage, and co-scheduled
// benchmarks contending for one shared factory bank (the fig15buf,
// buffersweep, contention and factory-sim experiments).  internal/network
// extends the kernel across tiles: benchmark dataflow graphs replay on a
// 2D mesh of Qalypso tiles where cross-tile gates teleport operands over
// dimension-order routes, each hop drawing an EPR pair from a finite link
// channel and teleport ancillae from the departing tile (the netsweep,
// netcontention, netfault and netdegrade experiments); a 1-tile mesh with
// ballistic movement disabled reproduces the single-region replay bit for
// bit.
//
// The cmd/qsd tool regenerates every table and figure of the paper's
// evaluation — as plain text, JSON or CSV (-format) — and `qsd serve`
// exposes the same experiments as parameterized HTTP endpoints on a shared
// engine, so repeated requests hit the result cache and identical
// concurrent requests coalesce.  The benchmarks in bench_test.go wrap the
// same experiments for `go test -bench`, including engine speedup and
// simulator-grid benches; the benchmark in bench/ measures the whole path
// and every layer with repeated samples (`bash bench/run.sh`).
// See README.md for the CLI and API reference and ARCHITECTURE.md for the
// data flow.
package speedofdata
