package rstar

import (
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
)

// paperConfig is the section 5 setup: 4 KB pages, MBR-only entries and a
// 128 KB buffer.
func paperConfig() Config {
	return Config{PageSize: 4096, LeafEntryBytes: 48, BufferBytes: 128 << 10}
}

func randRect(rng *rand.Rand, space, maxExt float64) geom.Rect {
	x := rng.Float64() * space
	y := rng.Float64() * space
	return geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*maxExt, MaxY: y + rng.Float64()*maxExt}
}

func buildTree(t *testing.T, rng *rand.Rand, n int, cfg Config) (*Tree, []Item) {
	t.Helper()
	tree := New(cfg)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, 100, 3), ID: int32(i)}
		tree.Insert(items[i])
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return tree, items
}

func TestInsertAndValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for _, pageSize := range []int{2048, 4096} {
		cfg := paperConfig()
		cfg.PageSize = pageSize
		tree, _ := buildTree(t, rng, 2000, cfg)
		if tree.Size() != 2000 {
			t.Fatalf("Size = %d", tree.Size())
		}
		if tree.Height() < 2 {
			t.Fatalf("2000 items must not fit one page (height %d)", tree.Height())
		}
	}
}

func TestLeafCapacityReflectsEntrySize(t *testing.T) {
	small := New(Config{PageSize: 4096, LeafEntryBytes: 48, BufferBytes: 1 << 17})
	big := New(Config{PageSize: 4096, LeafEntryBytes: 104, BufferBytes: 1 << 17})
	if small.LeafCapacity() <= big.LeafCapacity() {
		t.Errorf("bigger entries must reduce capacity: %d vs %d",
			small.LeafCapacity(), big.LeafCapacity())
	}
	// 4096-16 = 4080; 4080/48 = 85, 4080/104 = 39.
	if small.LeafCapacity() != 85 || big.LeafCapacity() != 39 {
		t.Errorf("capacities = %d, %d; want 85, 39", small.LeafCapacity(), big.LeafCapacity())
	}
}

func TestWindowQueryAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	tree, items := buildTree(t, rng, 3000, paperConfig())
	for trial := 0; trial < 50; trial++ {
		w := randRect(rng, 100, 15)
		got := map[int32]bool{}
		tree.WindowQueryAccess(tree.Buffer(), w, func(it Item) { got[it.ID] = true })
		want := map[int32]bool{}
		for _, it := range items {
			if it.Rect.Intersects(w) {
				want[it.ID] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: window query returned %d items, scan %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: item %d missing from window query", trial, id)
			}
		}
	}
}

func TestPointQueryAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	tree, items := buildTree(t, rng, 2000, paperConfig())
	for trial := 0; trial < 100; trial++ {
		p := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		got := 0
		tree.WindowQueryAccess(tree.Buffer(), geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}, func(Item) { got++ })
		want := 0
		for _, it := range items {
			if it.Rect.ContainsPoint(p) {
				want++
			}
		}
		if got != want {
			t.Fatalf("trial %d: point query found %d, scan %d", trial, got, want)
		}
	}
}

func TestAllVisitsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(167))
	tree, items := buildTree(t, rng, 500, paperConfig())
	seen := map[int32]bool{}
	everything := geom.Rect{MinX: -1e300, MinY: -1e300, MaxX: 1e300, MaxY: 1e300}
	tree.WindowQueryAccess(tree.Buffer(), everything, func(it Item) { seen[it.ID] = true })
	if len(seen) != len(items) {
		t.Fatalf("a full-plane window visited %d of %d items", len(seen), len(items))
	}
}

func TestJoinAgainstNestedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	cfg := paperConfig()
	t1, items1 := buildTree(t, rng, 800, cfg)
	t2, items2 := buildTree(t, rng, 700, cfg)
	// The second round inserts into a tree the first join ordered: the
	// join must see the new entries in its plane-sweep order.
	for round := 0; round < 2; round++ {
		if round == 1 {
			for i := 0; i < 200; i++ {
				it := Item{Rect: randRect(rng, 100, 3), ID: int32(len(items1))}
				items1 = append(items1, it)
				t1.Insert(it)
			}
		}
		type pair struct{ a, b int32 }
		got := map[pair]int{}
		st := seqJoin(t1, t2, func(a, b Item) { got[pair{a.ID, b.ID}]++ })
		want := map[pair]bool{}
		for _, a := range items1 {
			for _, b := range items2 {
				if a.Rect.Intersects(b.Rect) {
					want[pair{a.ID, b.ID}] = true
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: join found %d pairs, nested loops %d", round, len(got), len(want))
		}
		for p, count := range got {
			if !want[p] {
				t.Fatalf("round %d: join emitted wrong pair %v", round, p)
			}
			if count != 1 {
				t.Fatalf("round %d: pair %v emitted %d times, want exactly once", round, p, count)
			}
		}
		if st.Pairs != int64(len(want)) {
			t.Fatalf("round %d: JoinStats.Pairs = %d, want %d", round, st.Pairs, len(want))
		}
		if st.RectTests <= 0 {
			t.Fatal("join must count rectangle tests")
		}
		// The plane-sweep/restriction join must test far fewer pairs than
		// nested loops over the full Cartesian product of entries.
		if st.RectTests >= int64(len(items1))*int64(len(items2)) {
			t.Fatalf("join rect tests %d not better than nested loops %d",
				st.RectTests, len(items1)*len(items2))
		}
	}
}

func TestJoinEmptyTrees(t *testing.T) {
	cfg := paperConfig()
	empty := New(cfg)
	rng := rand.New(rand.NewSource(179))
	full, _ := buildTree(t, rng, 100, cfg)
	if st := seqJoin(empty, full, func(a, b Item) { t.Fatal("no pairs expected") }); st.Pairs != 0 {
		t.Fatal("empty join must produce nothing")
	}
	if st := seqJoin(full, empty, func(a, b Item) { t.Fatal("no pairs expected") }); st.Pairs != 0 {
		t.Fatal("empty join must produce nothing (swapped)")
	}
}

func TestJoinDifferentHeights(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	cfg := paperConfig()
	big, items1 := buildTree(t, rng, 4000, cfg)
	small, items2 := buildTree(t, rng, 30, cfg)
	if big.Height() == small.Height() {
		t.Skip("heights coincide")
	}
	got := 0
	seqJoin(big, small, func(a, b Item) { got++ })
	want := 0
	for _, a := range items1 {
		for _, b := range items2 {
			if a.Rect.Intersects(b.Rect) {
				want++
			}
		}
	}
	if got != want {
		t.Fatalf("different-height join found %d pairs, want %d", got, want)
	}
}

func TestBufferCountsPageAccesses(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	cfg := paperConfig()
	cfg.BufferBytes = 32 * cfg.PageSize
	tree, _ := buildTree(t, rng, 5000, cfg)
	tree.Buffer().ResetCounters()
	for i := 0; i < 100; i++ {
		w := randRect(rng, 100, 5)
		tree.WindowQueryAccess(tree.Buffer(), w, func(Item) {})
	}
	if tree.Buffer().Accesses() == 0 {
		t.Fatal("queries must touch pages")
	}
	if tree.Buffer().Misses() == 0 {
		t.Fatal("a 32-page buffer cannot hold a 5000-item tree: misses expected")
	}
	if tree.Buffer().Hits() == 0 {
		t.Fatal("root pages must hit the buffer")
	}
}

func TestSmallerPagesMoreAccesses(t *testing.T) {
	// Figure 10 precondition: with smaller pages, queries touch more pages.
	rng := rand.New(rand.NewSource(193))
	counts := map[int]int64{}
	for _, ps := range []int{2048, 4096} {
		cfg := Config{PageSize: ps, LeafEntryBytes: 48, BufferBytes: 128 << 10}
		rng2 := rand.New(rand.NewSource(199))
		tree := New(cfg)
		for i := 0; i < 4000; i++ {
			tree.Insert(Item{Rect: randRect(rng2, 100, 2), ID: int32(i)})
		}
		tree.Buffer().Clear()
		for trial := 0; trial < 200; trial++ {
			w := randRect(rng, 100, 8)
			tree.WindowQueryAccess(tree.Buffer(), w, func(Item) {})
		}
		counts[ps] = tree.Buffer().Accesses()
	}
	if counts[2048] <= counts[4096] {
		t.Errorf("2 KB pages should need more page touches than 4 KB: %d vs %d",
			counts[2048], counts[4096])
	}
}

// TestPageBreakdownCountsLivePages: the planner's traversal cost charges
// per reachable page, so the breakdown must account for every live node
// exactly once — leaves + directories equal to a structural walk's count,
// a single-page tree reported as one leaf and no directories, and the
// total never exceeding the allocation high-water mark.
func TestPageBreakdownCountsLivePages(t *testing.T) {
	rng := rand.New(rand.NewSource(313))

	small := New(paperConfig())
	small.Insert(Item{Rect: randRect(rng, 100, 3), ID: 0})
	if l, d := small.PageBreakdown(); l != 1 || d != 0 {
		t.Fatalf("single-page tree reported %d leaves, %d directories", l, d)
	}

	tree, items := buildTree(t, rng, 3000, paperConfig())
	leaves, dirs := tree.PageBreakdown()
	if leaves < 2 || dirs < 1 {
		t.Fatalf("3000 items must spread over several pages, got %d leaves, %d directories", leaves, dirs)
	}
	if tree.Height() >= 2 && dirs == 0 {
		t.Errorf("height %d tree reported no directory pages", tree.Height())
	}
	if total := leaves + dirs; total > tree.Pages() {
		t.Errorf("breakdown counts %d live pages, more than the %d ever allocated", total, tree.Pages())
	}
	// Leaves must be able to hold every item under the capacity bound.
	if leaves*tree.LeafCapacity() < len(items) {
		t.Errorf("%d leaves of capacity %d cannot hold %d items", leaves, tree.LeafCapacity(), len(items))
	}
}
