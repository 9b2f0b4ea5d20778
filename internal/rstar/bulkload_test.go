package rstar

import (
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/rtreecore"
)

func TestBulkLoadCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	items := make([]Item, 5000)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, 100, 3), ID: int32(i)}
	}
	tree := BulkLoad(items, DefaultConfig())
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tree.Size() != len(items) {
		t.Fatalf("Size = %d", tree.Size())
	}
	// Queries agree with a scan.
	for trial := 0; trial < 40; trial++ {
		w := randRect(rng, 100, 10)
		got := map[int32]bool{}
		tree.WindowQuery(w, func(it Item) { got[it.ID] = true })
		want := 0
		for _, it := range items {
			if it.Rect.Intersects(w) {
				want++
				if !got[it.ID] {
					t.Fatalf("bulk-loaded tree misses item %d", it.ID)
				}
			}
		}
		if len(got) != want {
			t.Fatalf("window query found %d, scan %d", len(got), want)
		}
	}
}

func TestBulkLoadPacksTighter(t *testing.T) {
	rng := rand.New(rand.NewSource(607))
	items := make([]Item, 8000)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, 100, 2), ID: int32(i)}
	}
	dynamic := New(DefaultConfig())
	for _, it := range items {
		dynamic.Insert(it)
	}
	static := BulkLoad(items, DefaultConfig())
	// STR packs near 100 %: it must allocate clearly fewer pages.
	if static.Pages() >= dynamic.Pages() {
		t.Errorf("STR pages %d must be below dynamic pages %d", static.Pages(), dynamic.Pages())
	}
	if static.Height() > dynamic.Height() {
		t.Errorf("STR height %d must not exceed dynamic height %d", static.Height(), dynamic.Height())
	}
}

func TestBulkLoadEmptyAndJoin(t *testing.T) {
	empty := BulkLoad(nil, DefaultConfig())
	if empty.Size() != 0 || empty.Height() != 1 {
		t.Error("empty bulk load malformed")
	}
	rng := rand.New(rand.NewSource(613))
	items1 := make([]Item, 700)
	for i := range items1 {
		items1[i] = Item{Rect: randRect(rng, 50, 2), ID: int32(i)}
	}
	items2 := make([]Item, 600)
	for i := range items2 {
		items2[i] = Item{Rect: randRect(rng, 50, 2), ID: int32(i)}
	}
	t1 := BulkLoad(items1, DefaultConfig())
	t2 := BulkLoad(items2, DefaultConfig())
	got := 0
	seqJoin(t1, t2, func(a, b Item) { got++ })
	want := 0
	for _, a := range items1 {
		for _, b := range items2 {
			if a.Rect.Intersects(b.Rect) {
				want++
			}
		}
	}
	if got != want {
		t.Fatalf("bulk-loaded join found %d pairs, want %d", got, want)
	}
}

func TestGuttmanSplitVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(617))
	cfg := DefaultConfig()
	cfg.Split = SplitQuadraticGuttman
	tree, items := buildTree(t, rng, 3000, cfg)
	// Correctness is identical; only the node quality differs.
	for trial := 0; trial < 30; trial++ {
		w := randRect(rng, 100, 8)
		got := 0
		tree.WindowQuery(w, func(Item) { got++ })
		want := 0
		for _, it := range items {
			if it.Rect.Intersects(w) {
				want++
			}
		}
		if got != want {
			t.Fatalf("Guttman tree query found %d, want %d", got, want)
		}
	}
}

func TestSplitQuadraticRespectsMinFill(t *testing.T) {
	rng := rand.New(rand.NewSource(619))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(50)
		rects := make([]geom.Rect, n)
		for i := range rects {
			x, y := rng.Float64()*10, rng.Float64()*10
			rects[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64(), MaxY: y + rng.Float64()}
		}
		minFill := 1 + rng.Intn(3)
		g1, g2 := rtreecore.SplitQuadratic(rects, minFill)
		if len(g1)+len(g2) != n {
			t.Fatalf("quadratic split lost entries")
		}
		want := minFill
		if want > n/2 {
			want = n / 2
		}
		if len(g1) < want || len(g2) < want {
			t.Fatalf("groups %d/%d violate min fill %d", len(g1), len(g2), want)
		}
	}
}

// TestRStarBeatsGuttmanOnQueries is the classic result the R*-tree paper
// establishes and this paper relies on: the topological split + forced
// reinsert produce a better tree (fewer node touches per query).
func TestRStarBeatsGuttmanOnQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(631))
	items := make([]Item, 6000)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, 100, 2), ID: int32(i)}
	}
	accesses := map[SplitAlgorithm]int64{}
	for _, split := range []SplitAlgorithm{SplitRStar, SplitQuadraticGuttman} {
		cfg := DefaultConfig()
		cfg.Split = split
		tree := New(cfg)
		for _, it := range items {
			tree.Insert(it)
		}
		tree.Buffer().Clear()
		qrng := rand.New(rand.NewSource(641))
		for q := 0; q < 300; q++ {
			tree.WindowQuery(randRect(qrng, 100, 5), func(Item) {})
		}
		accesses[split] = tree.Buffer().Accesses()
	}
	if accesses[SplitRStar] > accesses[SplitQuadraticGuttman] {
		t.Errorf("R* split (%d accesses) should not lose to Guttman (%d)",
			accesses[SplitRStar], accesses[SplitQuadraticGuttman])
	}
}
