package rstar

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"spatialjoin/internal/geom"
)

// buildAllocTrees returns two joined trees of n items each whose pages
// all fit the buffer, so a warmed traversal only hits: the guards below
// price the traversal, not the replacement simulation (whose misses on
// a full buffer allocate nothing either, see storage's guard).
func buildAllocTrees(t *testing.T, n int) (*Tree, *Tree) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	cfg := paperConfig()
	cfg.BufferBytes = 64 << 20 // every page stays resident
	t1, t2 := New(cfg), New(cfg)
	for i := 0; i < n; i++ {
		x, y := rng.Float64(), rng.Float64()
		w, h := 0.01+0.02*rng.Float64(), 0.01+0.02*rng.Float64()
		t1.Insert(Item{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, ID: int32(i)})
		x, y = rng.Float64(), rng.Float64()
		t2.Insert(Item{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, ID: int32(i)})
	}
	return t1, t2
}

// TestNodePairSweepAllocFree is the allocation-regression guard of the
// synchronized-traversal hot path: once the visitor's per-depth scratch
// buffers have reached their high-water mark (one warm-up traversal), the
// node-pair expansion — search-space restriction in x-order, pair
// enumeration — must perform zero heap allocations.
func TestNodePairSweepAllocFree(t *testing.T) {
	t1, t2 := buildAllocTrees(t, 1500)
	t1.orderEntries()
	t2.orderEntries()
	var st JoinStats
	var pairs int64
	v := newJoinVisit(t1, t2, &st, 0, nil, func(a, b Item) { pairs++ })
	v.ax1, v.ax2 = t1.buf, t2.buf
	b1, b2 := t1.root.bounds(), t2.root.bounds()

	v.nodes(t1.root, t2.root, b1, b2) // warm-up: scratch + buffer residency
	if pairs == 0 {
		t.Fatal("degenerate workload: the traversal emitted no pairs")
	}

	allocs := testing.AllocsPerRun(20, func() {
		v.nodes(t1.root, t2.root, b1, b2)
	})
	if allocs != 0 {
		t.Fatalf("steady-state node-pair expansion allocates %.1f objects per traversal, want 0", allocs)
	}
}

// TestJoinAllocsBounded guards the whole-join allocation budget: a
// warmed join, sequential or partitioned over two workers, allocates a
// constant — its emit closures, and for the partitioned traversal the
// workers and their shared counters — while visitors, scratch ladders,
// the task list and the page traces come back from their free lists. The
// budget holds at two tree sizes whose task counts differ several fold,
// so nothing in it grows with the data.
func TestJoinAllocsBounded(t *testing.T) {
	for _, n := range []int{1500, 6000} {
		t1, t2 := buildAllocTrees(t, n)
		var pairs atomic.Int64
		for _, workers := range []int{1, 2} {
			join := func() {
				joinShared(t1, t2, workers, func(_ int, a, b Item) { pairs.Add(1) })
			}
			join() // warm the buffers and the free lists
			allocs := testing.AllocsPerRun(10, join)
			t.Logf("%d items (%d×%d root entries), %d workers: %.1f objects per join",
				n, len(t1.root.entries), len(t2.root.entries), workers, allocs)
			// Anything near the task or node-pair count is a regression.
			const budget = 16
			if allocs > budget {
				t.Errorf("%d items, %d workers: the join allocates %.1f objects, want <= %d",
					n, workers, allocs, budget)
			}
		}
	}
}
