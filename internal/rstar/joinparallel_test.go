package rstar

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"spatialjoin/internal/geom"
)

// joinTrees builds two deterministic trees whose item sets overlap.
func joinTrees(n int) (*Tree, *Tree) {
	t1 := New(paperConfig())
	t2 := New(paperConfig())
	for i := 0; i < n; i++ {
		x := float64(i%97) / 97
		y := float64((i*31)%89) / 89
		t1.Insert(Item{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 0.02, MaxY: y + 0.02}, ID: int32(i)})
		x2 := float64((i*17)%97) / 97
		y2 := float64((i*7)%89) / 89
		t2.Insert(Item{Rect: geom.Rect{MinX: x2, MinY: y2, MaxX: x2 + 0.02, MaxY: y2 + 0.02}, ID: int32(i)})
	}
	return t1, t2
}

// joinShared runs the MBR-join with the given worker count on the trees'
// shared buffers (single-query accounting); workers = 1 is the sequential
// traversal, the reference of every equivalence test in this package.
func joinShared(t1, t2 *Tree, workers int, emit func(w int, a, b Item)) JoinStats {
	return JoinParallelAccess(context.Background(), t1, t2, t1.buf, t2.buf, 0, workers, emit)
}

// seqJoin is joinShared with one worker.
func seqJoin(t1, t2 *Tree, fn func(a, b Item)) JoinStats {
	return joinShared(t1, t2, 1, func(_ int, a, b Item) { fn(a, b) })
}

type idPair struct{ a, b int32 }

func sortedPairs(ps []idPair) []idPair {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].a != ps[j].a {
			return ps[i].a < ps[j].a
		}
		return ps[i].b < ps[j].b
	})
	return ps
}

// TestConcurrentFirstJoins runs the first joins of freshly built trees
// at once, as the tile fan-out runs sub-joins that share a tile: the
// entry orders are computed once, under the tree's lock, and every join
// reports what a later join on the ordered trees reports (run with
// -race).
func TestConcurrentFirstJoins(t *testing.T) {
	t1, t2 := joinTrees(800)
	type outcome struct {
		st             JoinStats
		pairs          int64
		miss1, miss2   int64
		first1, first2 bool
	}
	run := func() outcome {
		s1, s2 := t1.NewSession(), t2.NewSession()
		o := outcome{first1: !t1.ordered.Load(), first2: !t2.ordered.Load()}
		var pairs atomic.Int64
		o.st = JoinParallelAccess(context.Background(), t1, t2, s1, s2, 0, 2, func(int, Item, Item) { pairs.Add(1) })
		o.pairs, o.miss1, o.miss2 = pairs.Load(), s1.Misses(), s2.Misses()
		return o
	}
	outs := make([]outcome, 8)
	var wg sync.WaitGroup
	for g := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[g] = run()
		}()
	}
	wg.Wait()
	want := run()
	if want.first1 || want.first2 || want.pairs == 0 {
		t.Fatalf("after the concurrent joins: trees unordered (%v, %v) or no pairs (%d)", want.first1, want.first2, want.pairs)
	}
	for g, o := range outs {
		o.first1, o.first2 = false, false
		if o != want {
			t.Errorf("join %d: %+v, want %+v", g, o, want)
		}
	}
}

// TestJoinParallelMatchesJoin checks that the partitioned traversal
// delivers exactly the sequential (one-worker) candidate set, the same
// JoinStats, and — thanks to the page-trace replay — the same buffer
// hit/miss counts.
func TestJoinParallelMatchesJoin(t *testing.T) {
	for _, n := range []int{0, 5, 40, 800, 5000} {
		t1, t2 := joinTrees(n)

		t1.Buffer().Clear()
		t2.Buffer().Clear()
		var want []idPair
		wantSt := seqJoin(t1, t2, func(a, b Item) { want = append(want, idPair{a.ID, b.ID}) })
		wantM1, wantM2 := t1.Buffer().Misses(), t2.Buffer().Misses()
		wantH1, wantH2 := t1.Buffer().Hits(), t2.Buffer().Hits()
		sortedPairs(want)

		for _, workers := range []int{1, 2, 3, 8, 0} {
			t1.Buffer().Clear()
			t2.Buffer().Clear()
			var mu sync.Mutex
			var got []idPair
			st := joinShared(t1, t2, workers, func(w int, a, b Item) {
				mu.Lock()
				got = append(got, idPair{a.ID, b.ID})
				mu.Unlock()
			})
			sortedPairs(got)
			if len(got) != len(want) {
				t.Fatalf("n=%d workers=%d: %d pairs, want %d", n, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d workers=%d: pair %d = %v, want %v", n, workers, i, got[i], want[i])
				}
			}
			if st != wantSt {
				t.Errorf("n=%d workers=%d: JoinStats %+v, want %+v", n, workers, st, wantSt)
			}
			if m1, m2 := t1.Buffer().Misses(), t2.Buffer().Misses(); m1 != wantM1 || m2 != wantM2 {
				t.Errorf("n=%d workers=%d: buffer misses (%d, %d), want (%d, %d)",
					n, workers, m1, m2, wantM1, wantM2)
			}
			if h1, h2 := t1.Buffer().Hits(), t2.Buffer().Hits(); h1 != wantH1 || h2 != wantH2 {
				t.Errorf("n=%d workers=%d: buffer hits (%d, %d), want (%d, %d)",
					n, workers, h1, h2, wantH1, wantH2)
			}
		}
	}
}

// TestJoinParallelWorkerIndexBounds checks the per-worker serialization
// contract: indices stay in range and per-index call counts add up.
func TestJoinParallelWorkerIndexBounds(t *testing.T) {
	t1, t2 := joinTrees(2000)
	const workers = 4
	counts := make([]int64, workers)
	total := joinShared(t1, t2, workers, func(w int, a, b Item) {
		if w < 0 || w >= workers {
			panic("worker index out of range")
		}
		counts[w]++ // serial per index by contract; race detector verifies
	})
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != total.Pairs {
		t.Errorf("emitted %d pairs across workers, stats say %d", sum, total.Pairs)
	}
}
