package microarch

import (
	"context"
	"fmt"
	"math/rand"

	"speedofdata/internal/engine"
	"speedofdata/internal/quantum"
)

// BufferPoint is one point of a buffer-capacity sweep: the cost of giving an
// ancilla source only a finite output buffer.  As the capacity grows the
// execution time converges on the infinite-buffer (closed-form) makespan;
// small buffers couple the factory to the bursty demand profile and stall
// both sides.
type BufferPoint struct {
	// BufferAncillae is the per-source buffer capacity (zero = infinite, the
	// fluid reference point).
	BufferAncillae float64
	// ExecutionTimeMs is the simulated execution time.
	ExecutionTimeMs float64
	// AncillaStallMs is the total time gates waited on encoded ancillae.
	AncillaStallMs float64
	// ProducerStallMs is the total time ancilla production was blocked on a
	// full buffer.
	ProducerStallMs float64
	// BufferHighWater is the peak buffered ancilla level.
	BufferHighWater float64
	// Events is the number of kernel events processed.
	Events int
}

// DefaultBufferCaps returns the standard buffer-capacity sweep: powers of two
// from one encoded ancilla up to 256, then the infinite-buffer reference
// (zero) that the finite points converge to.
func DefaultBufferCaps() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 0}
}

// BufferSweepEngine simulates the circuit at each ancilla buffer capacity
// and returns one point per capacity, in input order, one engine job per
// capacity.
func BufferSweepEngine(ctx context.Context, eng *engine.Engine, c *quantum.Circuit, base Config, caps []float64) ([]BufferPoint, error) {
	if len(caps) == 0 {
		return nil, fmt.Errorf("microarch: no buffer capacities to sweep")
	}
	fp := c.Fingerprint()
	jobs := make([]engine.Job[BufferPoint], len(caps))
	for i, cap := range caps {
		cap := cap
		jobs[i] = engine.Job[BufferPoint]{
			Key: engine.Fingerprint("microarch.buffersweep", fp, base, cap),
			Run: func(context.Context, *rand.Rand) (BufferPoint, error) {
				if cap < 0 {
					return BufferPoint{}, fmt.Errorf("microarch: negative buffer capacity %v", cap)
				}
				cfg := base
				cfg.BufferAncillae = cap
				res, err := Simulate(c, cfg)
				if err != nil {
					return BufferPoint{}, err
				}
				return BufferPoint{
					BufferAncillae:  cap,
					ExecutionTimeMs: res.ExecutionTimeMs(),
					AncillaStallMs:  res.AncillaStallTime.Milliseconds(),
					ProducerStallMs: res.ProducerStallTime.Milliseconds(),
					BufferHighWater: res.BufferHighWater,
					Events:          res.Events,
				}, nil
			},
		}
	}
	return engine.Run(ctx, eng, jobs)
}
