// Package hist is a fixed-bucket, HDR-style latency histogram shared by
// the serving layer's per-endpoint statistics and the load harness
// (internal/loadgen). The bucket layout is log-linear: values are
// grouped into powers-of-two octaves, each octave split into a fixed
// number of linear sub-buckets, so relative quantile error is bounded
// (~1/subBuckets) across the whole dynamic range while the memory
// footprint stays constant. Recording is a single atomic increment —
// safe for any number of concurrent writers with no coordination — and
// reads (Quantile, Count, Merge) observe a consistent-enough snapshot
// for reporting purposes.
//
// Unlike a sampling reservoir, a fixed-bucket histogram never drops
// observations, so open-loop load generators can record the latency of
// every scheduled request and the tail (p99, max) is exact up to bucket
// resolution — the "no coordinated omission" discipline of HdrHistogram.
package hist

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBits sets the linear resolution inside one octave: 2^subBits
	// sub-buckets, bounding relative error at ~1/2^subBits ≈ 1.6%.
	subBits = 6
	// octaves covers values from 1 up to 2^octaves·subBuckets; with
	// nanosecond recording that spans > 500 s of latency.
	octaves = 33
	// nBuckets is the flat bucket count.
	nBuckets = octaves << subBits
)

// Histogram counts int64 observations (by convention: nanoseconds) in
// log-linear buckets. The zero value is ready to use; all methods are
// safe for concurrent use.
type Histogram struct {
	counts [nBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// bucketOf maps a value onto its flat bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	// Values below one full sub-bucket range land in octave 0's linear
	// region; above it, the top subBits bits under the leading one select
	// the sub-bucket.
	exp := bits.Len64(uint64(v)) // position of the leading one, 0 for v=0
	if exp <= subBits {
		return int(v)
	}
	oct := exp - subBits
	sub := int((v >> (oct - 1)) & ((1 << subBits) - 1))
	idx := oct<<subBits + sub
	if idx >= nBuckets {
		idx = nBuckets - 1
	}
	return idx
}

// lowerBound returns the smallest value mapping to bucket idx — the
// conservative value reported for quantiles falling in that bucket.
func lowerBound(idx int) int64 {
	oct := idx >> subBits
	sub := int64(idx & ((1 << subBits) - 1))
	if oct == 0 {
		return sub
	}
	return (1<<subBits + sub) << (oct - 1)
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// RecordDuration adds one observation in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(d.Nanoseconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Max returns the largest recorded observation (exact, not bucketed).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns the value at quantile q ∈ [0, 1]: the lower bound of
// the bucket holding the ⌈q·n⌉-th observation (0 when empty). q=1
// returns the exact maximum.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q >= 1 {
		return h.max.Load()
	}
	if q < 0 {
		q = 0
	}
	rank := int64(q*float64(n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < nBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			return lowerBound(i)
		}
	}
	return h.max.Load()
}

// Snapshot is a fixed set of reporting quantiles in milliseconds — the
// shape both /stats and the load harness report.
type Snapshot struct {
	Count  int64   `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// Snapshot returns the standard reporting quantiles.
func (h *Histogram) Snapshot() Snapshot {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return Snapshot{
		Count:  h.Count(),
		P50Ms:  ms(h.Quantile(0.50)),
		P95Ms:  ms(h.Quantile(0.95)),
		P99Ms:  ms(h.Quantile(0.99)),
		MaxMs:  ms(h.Max()),
		MeanMs: h.Mean() / 1e6,
	}
}
