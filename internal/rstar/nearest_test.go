package rstar

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/storage"
)

func TestNearestNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	tree, items := buildTree(t, rng, 2000, paperConfig())
	for trial := 0; trial < 50; trial++ {
		p := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		k := 1 + rng.Intn(10)
		got := tree.NearestNeighborsAccess(tree.Buffer(), p, k)
		if len(got) != k {
			t.Fatalf("trial %d: got %d neighbours, want %d", trial, len(got), k)
		}
		// Brute-force ground truth on rect distance.
		dists := make([]float64, len(items))
		for i, it := range items {
			dists[i] = rectDist(it.Rect, p)
		}
		sort.Float64s(dists)
		for i, it := range got {
			d := rectDist(it.Rect, p)
			if d > dists[k-1]+1e-9 {
				t.Fatalf("trial %d: neighbour %d at distance %v, k-th true distance %v", trial, i, d, dists[k-1])
			}
			if i > 0 && d+1e-9 < rectDist(got[i-1].Rect, p) {
				t.Fatalf("trial %d: neighbours not in increasing distance order", trial)
			}
		}
	}
	if got := tree.NearestNeighborsAccess(tree.Buffer(), geom.Point{}, 0); got != nil {
		t.Error("k=0 must return nil")
	}
	empty := New(paperConfig())
	if got := empty.NearestNeighborsAccess(empty.Buffer(), geom.Point{}, 3); got != nil {
		t.Error("empty tree must return nil")
	}
}

func TestRectDist(t *testing.T) {
	r := geom.Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}
	cases := []struct {
		p geom.Point
		d float64
	}{
		{geom.Point{X: 1, Y: 1}, 0},
		{geom.Point{X: 3, Y: 1}, 1},
		{geom.Point{X: 1, Y: -2}, 2},
		{geom.Point{X: 5, Y: 6}, 5},
	}
	for _, c := range cases {
		if got := rectDist(r, c.p); got != c.d {
			t.Errorf("rectDist(%v) = %v, want %v", c.p, got, c.d)
		}
	}
}

// bulkCandidate and bulkHeap are the priority queue of the bulk
// best-first search that NearestNeighborsAccess ran before it became the
// collect-k caller of the ranking; bulkNearest is that search, kept as
// the reference for its results and page accesses.
type bulkCandidate struct {
	dist float64
	n    *node
	item Item
	leaf bool
}

type bulkHeap []bulkCandidate

func (h *bulkHeap) push(c bulkCandidate) {
	*h = append(*h, c)
	items := *h
	for i := len(items) - 1; i > 0; {
		parent := (i - 1) / 2
		if items[parent].dist <= items[i].dist {
			break
		}
		items[parent], items[i] = items[i], items[parent]
		i = parent
	}
}

func (h *bulkHeap) pop() bulkCandidate {
	items := *h
	top := items[0]
	last := len(items) - 1
	items[0] = items[last]
	*h = items[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && items[l].dist < items[small].dist {
			small = l
		}
		if r < last && items[r].dist < items[small].dist {
			small = r
		}
		if small == i {
			break
		}
		items[i], items[small] = items[small], items[i]
		i = small
	}
	return top
}

func bulkNearest(t *Tree, ax storage.Accessor, p geom.Point, k int) []Item {
	if k <= 0 || t.size == 0 {
		return nil
	}
	var heap bulkHeap
	heap.push(bulkCandidate{dist: rectDist(t.root.bounds(), p), n: t.root})
	var out []Item
	for len(heap) > 0 && len(out) < k {
		c := heap.pop()
		if c.leaf {
			out = append(out, c.item)
			continue
		}
		ax.Access(c.n.page)
		for _, e := range c.n.entries {
			if c.n.leaf {
				heap.push(bulkCandidate{dist: rectDist(e.rect, p), item: e.item, leaf: true})
			} else {
				heap.push(bulkCandidate{dist: rectDist(e.rect, p), n: e.child})
			}
		}
	}
	return out
}

// TestNearestRankMatchesBulkSearch pins the incremental ranking to the
// bulk search it replaced: the same items in the same order (ties
// included) and the same page faults, for every k, from sessions seeded
// alike; and a ranking that is stopped early visits a prefix of the full
// one.
func TestNearestRankMatchesBulkSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(433))
	cfg := paperConfig()
	cfg.PageSize = 1024
	cfg.BufferBytes = 4096
	tree, items := buildTree(t, rng, 1500, cfg)
	// Coincident rectangles: ties in the ranking.
	for i := 0; i < 40; i++ {
		tree.Insert(Item{Rect: geom.Rect{MinX: 50, MinY: 50, MaxX: 51, MaxY: 51}, ID: int32(len(items) + i)})
	}
	var misses int64
	for trial := 0; trial < 40; trial++ {
		p := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		if trial%4 == 0 {
			p = geom.Point{X: 50.5, Y: 50.5}
		}
		for _, k := range []int{1, 4, 32, 200, tree.Size(), tree.Size() + 5} {
			wantAx, gotAx := tree.NewSession(), tree.NewSession()
			want := bulkNearest(tree, wantAx, p, k)
			got := tree.NearestNeighborsAccess(gotAx, p, k)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d k=%d: items differ from the bulk search", trial, k)
			}
			if gotAx.Misses() != wantAx.Misses() || gotAx.Accesses() != wantAx.Accesses() {
				t.Fatalf("trial %d k=%d: %d misses of %d accesses, bulk search %d of %d",
					trial, k, gotAx.Misses(), gotAx.Accesses(), wantAx.Misses(), wantAx.Accesses())
			}
			misses += gotAx.Misses()
			last := math.Inf(-1)
			var ranked []Item
			tree.NearestRankAccess(tree.NewSession(), p, func(it Item, d float64) bool {
				if d != rectDist(it.Rect, p) || d < last {
					t.Fatalf("trial %d: ranking yields %v at %v after %v", trial, it, d, last)
				}
				last = d
				ranked = append(ranked, it)
				return len(ranked) < k
			})
			if !slices.Equal(ranked, want) {
				t.Fatalf("trial %d k=%d: ranking stopped after k differs from the bulk search", trial, k)
			}
		}
	}
	if misses == 0 {
		t.Fatal("no search faulted a page; the page-access comparison is vacuous")
	}
}
