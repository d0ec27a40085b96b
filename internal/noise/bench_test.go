package noise

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"speedofdata/internal/steane"
)

// benchmarkChunk measures raw Monte Carlo trial throughput per sampling
// mode on the verify-and-correct circuit (the paper's factory preparation,
// and the costliest Figure 4 variant).
func benchmarkChunk(b *testing.B, mode Sampling) {
	code := steane.NewCode()
	s, err := NewSimulator(code, steane.VerifyAndCorrectProtocol(code), DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	s.Sampling = mode
	const trials = 8192
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.monteCarloChunk(rand.New(rand.NewSource(int64(i))), trials)
	}
	b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/sec")
}

func BenchmarkMonteCarloChunkDense(b *testing.B)     { benchmarkChunk(b, SamplingDense) }
func BenchmarkMonteCarloChunkSparse(b *testing.B)    { benchmarkChunk(b, SamplingSparse) }
func BenchmarkMonteCarloChunkBitSliced(b *testing.B) { benchmarkChunk(b, SamplingBitSliced) }

// BenchmarkBitSlicedOverDense is the bit-sliced executor's perf gate: at
// 20,000 trials on each Figure 4 protocol, its total time must be at least
// 5x below the dense executor's.  Each protocol's time on each executor is
// the fastest of 5 runs: the bit-sliced runs take about a millisecond, so a
// single run would let one host stall fail the gate.
func BenchmarkBitSlicedOverDense(b *testing.B) {
	const trials, runs = 20000, 5
	code := steane.NewCode()
	modes := []Sampling{SamplingDense, SamplingBitSliced}
	var total [2]time.Duration
	for i := 0; i < b.N; i++ {
		for _, p := range steane.StandardProtocols(code) {
			for m, mode := range modes {
				fastest := time.Duration(math.MaxInt64)
				for range runs {
					s, err := NewSimulator(code, p, DefaultModel())
					if err != nil {
						b.Fatal(err)
					}
					s.Sampling = mode
					t0 := time.Now()
					s.MonteCarlo(trials, 12345)
					fastest = min(fastest, time.Since(t0))
				}
				total[m] += fastest
			}
		}
	}
	ratio := total[0].Seconds() / total[1].Seconds()
	b.ReportMetric(ratio, "bitsliced/dense")
	if ratio < 5 {
		b.Errorf("bit-sliced executor only %.1fx dense at equal budgets, want >= 5x", ratio)
	}
}
