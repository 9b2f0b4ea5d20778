package rtreecore

import (
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
)

func randRects(rng *rand.Rand, n int) []geom.Rect {
	out := make([]geom.Rect, n)
	for i := range out {
		x, y := rng.Float64()*10, rng.Float64()*10
		out[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64(), MaxY: y + rng.Float64()}
	}
	return out
}

// split runs Split with a fresh order buffer and returns both groups.
func split(rects []geom.Rect, minFill int) (g1, g2 []int) {
	order := make([]int, len(rects))
	k := Split(rects, minFill, order)
	return order[:k], order[k:]
}

func TestChooseSubtreePrefersContaining(t *testing.T) {
	children := []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},
		{MinX: 20, MinY: 20, MaxX: 30, MaxY: 30},
	}
	r := geom.Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}
	for _, leaves := range []bool{true, false} {
		if got := ChooseSubtree(children, r, leaves); got != 0 {
			t.Errorf("leaves=%v: chose child %d, want 0 (contains the entry)", leaves, got)
		}
	}
}

func TestChooseSubtreeMinimizesEnlargement(t *testing.T) {
	children := []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6},
	}
	r := geom.Rect{MinX: 5.5, MinY: 5.5, MaxX: 5.6, MaxY: 5.6}
	if got := ChooseSubtree(children, r, false); got != 1 {
		t.Errorf("chose child %d, want 1 (zero enlargement)", got)
	}
}

func TestChooseSubtreeLeafOverlapCriterion(t *testing.T) {
	// Two overlapping children; inserting into the left one would increase
	// their mutual overlap, the right one would not.
	children := []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4},
		{MinX: 3, MinY: 0, MaxX: 7, MaxY: 4},
	}
	r := geom.Rect{MinX: 6.5, MinY: 1, MaxX: 6.9, MaxY: 2}
	if got := ChooseSubtree(children, r, true); got != 1 {
		t.Errorf("chose child %d, want 1 (no overlap enlargement)", got)
	}
}

func TestSplitRespectsMinFill(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(60)
		minFill := 1 + rng.Intn(3)
		rects := randRects(rng, n)
		g1, g2 := split(rects, minFill)
		if len(g1)+len(g2) != n {
			t.Fatalf("split lost entries: %d + %d != %d", len(g1), len(g2), n)
		}
		want := minFill
		if want > n/2 {
			want = n / 2
		}
		if len(g1) < want || len(g2) < want {
			t.Fatalf("split groups %d/%d violate min fill %d", len(g1), len(g2), want)
		}
		seen := map[int]bool{}
		for _, i := range append(append([]int{}, g1...), g2...) {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
		}
	}
}

func TestSplitSeparatesClusters(t *testing.T) {
	// Two well-separated clusters must be split apart.
	var rects []geom.Rect
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 10; i++ {
		x, y := rng.Float64(), rng.Float64()
		rects = append(rects, geom.Rect{MinX: x, MinY: y, MaxX: x + 0.1, MaxY: y + 0.1})
	}
	for i := 0; i < 10; i++ {
		x, y := 100+rng.Float64(), rng.Float64()
		rects = append(rects, geom.Rect{MinX: x, MinY: y, MaxX: x + 0.1, MaxY: y + 0.1})
	}
	g1, g2 := split(rects, 4)
	firstGroupOf := func(idx int) bool {
		for _, i := range g1 {
			if i == idx {
				return true
			}
		}
		return false
	}
	left := firstGroupOf(0)
	for i := 1; i < 10; i++ {
		if firstGroupOf(i) != left {
			t.Fatal("left cluster split across groups")
		}
	}
	for i := 10; i < 20; i++ {
		if firstGroupOf(i) == left {
			t.Fatal("clusters not separated")
		}
	}
	_ = g2
}

func TestReinsertOrderFarthestFirst(t *testing.T) {
	rects := []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},       // near the center of the union
		{MinX: -10, MinY: -10, MaxX: -9, MaxY: -9}, // far corner
		{MinX: 10, MinY: 10, MaxX: 11, MaxY: 11},   // far corner
		{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8},
	}
	order := ReinsertOrder(rects, 2, make([]int, len(rects)))
	if len(order) != 2 {
		t.Fatalf("want 2 indices, got %d", len(order))
	}
	for _, i := range order {
		if i != 1 && i != 2 {
			t.Errorf("farthest entries are 1 and 2; got index %d", i)
		}
	}
	// Requesting more than available clamps.
	if got := ReinsertOrder(rects, 99, make([]int, len(rects))); len(got) != len(rects) {
		t.Errorf("over-request must clamp to %d, got %d", len(rects), len(got))
	}
}

func TestSplitPropertyBoundingBoxesShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rects := randRects(rng, 20)
		g1, g2 := split(rects, 4)
		u := geom.EmptyRect()
		for _, r := range rects {
			u = u.Union(r)
		}
		b1 := geom.EmptyRect()
		for _, i := range g1 {
			b1 = b1.Union(rects[i])
		}
		b2 := geom.EmptyRect()
		for _, i := range g2 {
			b2 = b2.Union(rects[i])
		}
		if !u.Contains(b1) || !u.Contains(b2) {
			t.Fatal("group boxes must stay inside the union")
		}
		if b1.Area()+b2.Area() > 2*u.Area()+1e-9 {
			t.Fatal("split produced absurdly large groups")
		}
	}
}
