package hist

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestBucketBounds pins the log-linear bucket invariants: every value
// maps into a bucket whose lower bound is ≤ the value, and the bucket's
// relative width is bounded by 1/2^subBits above the linear region.
func TestBucketBounds(t *testing.T) {
	for _, v := range []int64{0, 1, 2, 63, 64, 65, 127, 128, 1000, 4095, 4096, 1 << 20, 1<<40 + 12345, 1 << 62} {
		idx := bucketOf(v)
		lo := lowerBound(idx)
		if lo > v {
			t.Fatalf("bucketOf(%d)=%d has lower bound %d > value", v, idx, lo)
		}
		if idx+1 < nBuckets {
			hi := lowerBound(idx + 1)
			if hi <= v {
				t.Fatalf("value %d maps to bucket %d but next bucket starts at %d", v, idx, hi)
			}
			if v > 1<<subBits && float64(hi-lo)/float64(v) > 1.0/float64(1<<subBits)+1e-9 {
				t.Fatalf("bucket %d width %d too wide for value %d", idx, hi-lo, v)
			}
		}
	}
}

// TestQuantileAccuracy checks quantile estimates stay within one bucket
// width (~1.6% relative) of the exact order statistics.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	const n = 100000
	vals := make([]int64, n)
	for i := range vals {
		// Log-uniform over ~6 decades, the shape of a latency distribution.
		v := int64(1000 * (1 << uint(rng.Intn(20))))
		v += rng.Int63n(v)
		vals[i] = v
		h.Record(v)
	}
	if h.Count() != n {
		t.Fatalf("count %d, want %d", h.Count(), n)
	}
	// Exact quantiles via full sort.
	full := append([]int64(nil), vals...)
	slices.Sort(full)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		got := h.Quantile(q)
		exact := full[int(q*float64(n-1))]
		rel := float64(exact-got) / float64(exact)
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.04 {
			t.Fatalf("q%.2f: got %d, exact %d (rel err %.3f)", q, got, exact, rel)
		}
	}
	if h.Quantile(1) != h.Max() {
		t.Fatalf("q1 %d != max %d", h.Quantile(1), h.Max())
	}
}

// TestConcurrentRecord hammers one histogram from many goroutines; run
// under -race this also proves the atomic discipline.
func TestConcurrentRecord(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(rng.Int63n(1 << 30))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count %d, want %d", h.Count(), workers*per)
	}
	if h.Quantile(0.5) <= 0 || h.Max() <= 0 {
		t.Fatalf("degenerate stats: p50=%d max=%d", h.Quantile(0.5), h.Max())
	}
}

// TestMerge proves merged histograms report the union.
