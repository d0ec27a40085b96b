package noise

import (
	"sync/atomic"

	"speedofdata/internal/obs"
)

// trialCounts tallies Monte Carlo trials per sampling mode, indexed by the
// Sampling constants.  One atomic add per chunk (thousands of trials), read
// by func-backed registry series, so the executors themselves are untouched.
var trialCounts [3]atomic.Int64

// countTrials records a chunk's trials against its sampling mode.
func countTrials(mode Sampling, trials int) {
	if mode >= 0 && int(mode) < len(trialCounts) {
		trialCounts[mode].Add(int64(trials))
	}
}

// Instrument registers per-mode Monte Carlo trial counters with reg.
// Together with a scrape interval they give trials/sec per executor — the
// live view of the dense/sparse/bitsliced speedups the benchmarks measure
// offline.  Call once, before serving.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, mode := range []Sampling{SamplingDense, SamplingSparse, SamplingBitSliced} {
		mode := mode
		reg.CounterFunc("qsd_noise_trials_total",
			"Monte Carlo trials executed, by sampling mode.",
			obs.Labels{"mode": mode.String()},
			func() float64 { return float64(trialCounts[mode].Load()) })
	}
}
