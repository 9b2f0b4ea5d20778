package rstar

import (
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
)

// buildAllocTrees returns two joined trees whose pages all fit the
// buffer, so a warmed traversal performs no buffer faults (a miss
// allocates a frame node — legitimate, but not part of the node-pair
// expansion under test).
func buildAllocTrees(t *testing.T) (*Tree, *Tree) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultConfig()
	cfg.BufferBytes = 64 << 20 // every page stays resident
	t1, t2 := New(cfg), New(cfg)
	for i := 0; i < 1500; i++ {
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
// node-pair expansion — search-space restriction, plane-sweep sort, pair
// enumeration — must perform zero heap allocations.
func TestNodePairSweepAllocFree(t *testing.T) {
	t1, t2 := buildAllocTrees(t)
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

// TestJoinAllocsBounded guards the whole-join allocation budget: a full
// sequential join on warmed trees may allocate only the visitor and its
// scratch ladder, independent of the data size.
func TestJoinAllocsBounded(t *testing.T) {
	t1, t2 := buildAllocTrees(t)
	var pairs int64
	fn := func(a, b Item) { pairs++ }
	seqJoin(t1, t2, fn) // warm the buffers

	allocs := testing.AllocsPerRun(10, func() {
		seqJoin(t1, t2, fn)
	})
	// Visitor + scratch ladder + a few restrict-buffer growths to the
	// high-water mark; anything near the node-pair count is a regression.
	const budget = 64
	if allocs > budget {
		t.Fatalf("the sequential join allocates %.1f objects per join, want <= %d", allocs, budget)
	}
}
