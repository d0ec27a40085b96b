package network

import (
	"sync/atomic"

	"speedofdata/internal/obs"
)

// Package-level counters feeding the metrics registry.  Mirroring
// internal/sim, they are plain atomics updated once per replay — never per
// event or per hop — and read by func-backed series at scrape time, so the
// fault layer adds nothing to the replay hot path.
var (
	// faultedReplays counts replays that ran with a non-empty fault plan.
	faultedReplays atomic.Int64
	// reroutes totals teleports whose spawn route deviated from the
	// fault-free dimension-order choice.
	reroutes atomic.Int64
	// partitioned counts replays aborted with ErrPartitioned.
	partitioned atomic.Int64
	// lastFailedLinks and lastDegradedLinks gauge the fault plan of the most
	// recent faulted replay.
	lastFailedLinks   atomic.Int64
	lastDegradedLinks atomic.Int64
)

// obsRecordReplay folds one replay's fault decomposition into the process
// counters.  Zero-fault replays record nothing.
func obsRecordReplay(fs FaultStats, part bool) {
	if fs == (FaultStats{}) && !part {
		return
	}
	faultedReplays.Add(1)
	reroutes.Add(int64(fs.Reroutes))
	lastFailedLinks.Store(int64(fs.FailedLinks))
	lastDegradedLinks.Store(int64(fs.DegradedLinks))
	if part {
		partitioned.Add(1)
	}
}

// Instrument registers the interconnect fault counters with reg.  Call once,
// before serving.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("qsd_network_faulted_replays_total",
		"Mesh replays executed with a non-empty fault plan.", nil,
		func() float64 { return float64(faultedReplays.Load()) })
	reg.CounterFunc("qsd_network_reroutes_total",
		"Teleports routed around failed links at spawn time.", nil,
		func() float64 { return float64(reroutes.Load()) })
	reg.CounterFunc("qsd_network_partitioned_total",
		"Replays aborted because link failures disconnected the mesh.", nil,
		func() float64 { return float64(partitioned.Load()) })
	reg.GaugeFunc("qsd_network_failed_links",
		"Dead links applied by the most recent faulted replay.", nil,
		func() float64 { return float64(lastFailedLinks.Load()) })
	reg.GaugeFunc("qsd_network_degraded_links",
		"Rate-degraded links applied by the most recent faulted replay.", nil,
		func() float64 { return float64(lastDegradedLinks.Load()) })
}
