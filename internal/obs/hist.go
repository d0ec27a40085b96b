package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is an HDR-style latency histogram: log-bucketed power-of-two
// ranges subdivided into 32 linear sub-buckets, giving quantiles with
// bounded relative error (about 3%) across nanoseconds-to-minutes without
// storing samples.  Recording is a pair of atomic adds, so request
// goroutines share one Histogram without contention; the zero value is
// ready to use.  It backs every registry summary series.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	total  atomic.Int64
	// sumUS accumulates recorded microseconds so exposition can report the
	// Prometheus summary _sum alongside the quantiles.
	sumUS atomic.Int64
}

const (
	// histSubBits sub-buckets per power-of-two range: 2^5 = 32 linear
	// subdivisions bound the relative quantile error at 1/32.
	histSubBits = 5
	histSub     = 1 << histSubBits
	// 64 possible exponents of a microsecond value, histSub sub-buckets
	// each, plus the direct range below histSub.
	histBuckets = histSub + 64*histSub
)

// bucketOf maps a latency (in microseconds) to its bucket index.
func bucketOf(us int64) int {
	if us < 0 {
		us = 0
	}
	v := uint64(us)
	if v < histSub {
		return int(v)
	}
	// e is the position of the highest bit beyond the direct range; the top
	// histSubBits+1 bits of v select the linear sub-bucket within range e.
	e := bits.Len64(v) - histSubBits - 1
	return histSub + e*histSub + int(v>>uint(e)) - histSub
}

// bucketMid returns the midpoint latency (in microseconds) represented by a
// bucket, the value quantile lookups report.
func bucketMid(b int) int64 {
	if b < histSub {
		return int64(b)
	}
	b -= histSub
	e := b / histSub
	sub := int64(b%histSub) + histSub
	lo := sub << uint(e)
	hi := (sub + 1) << uint(e)
	return (lo + hi) / 2
}

// Record adds one latency observation.
func (h *Histogram) Record(d time.Duration) {
	us := d.Microseconds()
	h.counts[bucketOf(us)].Add(1)
	h.total.Add(1)
	h.sumUS.Add(us)
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum reports the total recorded latency, at microsecond resolution.
func (h *Histogram) Sum() time.Duration {
	return time.Duration(h.sumUS.Load()) * time.Microsecond
}

// Quantile returns the latency at quantile q in [0, 1] (0.5 = median).  It
// reports 0 when nothing was recorded.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based; cumulative scan finds its
	// bucket and reports the bucket midpoint.
	rank := int64(q*float64(total-1)) + 1
	var seen int64
	for b := range h.counts {
		seen += h.counts[b].Load()
		if seen >= rank {
			return time.Duration(bucketMid(b)) * time.Microsecond
		}
	}
	return time.Duration(bucketMid(histBuckets-1)) * time.Microsecond
}

// Max returns the midpoint of the highest occupied bucket.
func (h *Histogram) Max() time.Duration {
	for b := histBuckets - 1; b >= 0; b-- {
		if h.counts[b].Load() > 0 {
			return time.Duration(bucketMid(b)) * time.Microsecond
		}
	}
	return 0
}
