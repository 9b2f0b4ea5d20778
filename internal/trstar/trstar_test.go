package trstar

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"spatialjoin/internal/decomp"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/ops"
)

func sq(cx, cy, half float64) []geom.Point {
	return []geom.Point{
		{X: cx - half, Y: cy - half}, {X: cx + half, Y: cy - half},
		{X: cx + half, Y: cy + half}, {X: cx - half, Y: cy + half},
	}
}

func starPoly(rng *rand.Rand, cx, cy, radius float64, n int) *geom.Polygon {
	pts := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		r := radius * (0.35 + 0.65*rng.Float64())
		pts[i] = geom.Point{X: cx + r*math.Cos(ang), Y: cy + r*math.Sin(ang)}
	}
	return geom.NewPolygon(pts)
}

func TestBuildAndValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for _, capacity := range []int{3, 4, 5} {
		for trial := 0; trial < 10; trial++ {
			p := starPoly(rng, 0, 0, 1, 10+rng.Intn(80))
			tree := NewFromPolygon(p, capacity)
			if err := tree.Validate(); err != nil {
				t.Fatalf("capacity %d trial %d: %v", capacity, trial, err)
			}
			if tree.NumTrapezoids() == 0 {
				t.Fatal("tree must hold trapezoids")
			}
			if tree.Capacity() != capacity {
				t.Fatal("capacity not recorded")
			}
		}
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	small := NewFromPolygon(starPoly(rng, 0, 0, 1, 12), 3)
	big := NewFromPolygon(starPoly(rng, 0, 0, 1, 400), 3)
	if small.Height() >= big.Height() {
		t.Errorf("height must grow with complexity: small %d, big %d", small.Height(), big.Height())
	}
	// Height must stay logarithmic: with minimum fill 2 every level at
	// least doubles the entry count.
	maxH := int(math.Ceil(math.Log2(float64(big.NumTrapezoids())))) + 2
	if big.Height() > maxH {
		t.Errorf("height %d too large for %d trapezoids (max %d)",
			big.Height(), big.NumTrapezoids(), maxH)
	}
}

func TestContainsPointAgainstPolygon(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 15; trial++ {
		p := starPoly(rng, 0, 0, 1, 8+rng.Intn(40))
		tree := NewFromPolygon(p, 3)
		var c ops.Counters
		for k := 0; k < 100; k++ {
			pt := geom.Point{X: rng.Float64()*2.4 - 1.2, Y: rng.Float64()*2.4 - 1.2}
			got := tree.ContainsPoint(pt, &c)
			want := p.ContainsPoint(pt)
			if got != want && distToBoundary(p, pt) > 1e-6 {
				t.Fatalf("trial %d: ContainsPoint(%v) = %v, polygon says %v", trial, pt, got, want)
			}
		}
		if c.RectIntersection == 0 {
			t.Fatal("point queries must count rectangle tests")
		}
	}
}

func distToBoundary(p *geom.Polygon, pt geom.Point) float64 {
	var edges []geom.Segment
	edges = p.Edges(edges)
	d := math.Inf(1)
	for _, e := range edges {
		if dd := e.DistToPoint(pt); dd < d {
			d = dd
		}
	}
	return d
}

// TestIntersectsAgainstGroundTruth cross-validates the TR*-tree join test
// against the exact polygon predicate on random pairs, including
// containment configurations (no boundary crossing).
func TestIntersectsAgainstGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	hits, misses := 0, 0
	for trial := 0; trial < 400; trial++ {
		p1 := starPoly(rng, 0, 0, 1, 5+rng.Intn(25))
		p2 := starPoly(rng, rng.Float64()*3-1.5, rng.Float64()*3-1.5, 0.15+rng.Float64(), 5+rng.Intn(25))
		t1 := NewFromPolygon(p1, 3)
		t2 := NewFromPolygon(p2, 3)
		truth := p1.Intersects(p2)
		var c ops.Counters
		if got := Intersects(t1, t2, &c); got != truth {
			t.Fatalf("trial %d: TR*-tree says %v, ground truth %v", trial, got, truth)
		}
		if truth {
			hits++
		} else {
			misses++
		}
	}
	if hits < 50 || misses < 50 {
		t.Fatalf("workload unbalanced: %d hits, %d misses", hits, misses)
	}
}

func TestIntersectsContainment(t *testing.T) {
	outer := NewFromPolygon(geom.NewPolygon(sq(0, 0, 4)), 3)
	inner := NewFromPolygon(geom.NewPolygon(sq(0, 0, 0.5)), 3)
	var c ops.Counters
	if !Intersects(outer, inner, &c) {
		t.Error("containment must be detected (trapezoids overlap by area)")
	}
	if !Intersects(inner, outer, &c) {
		t.Error("containment must be detected (swapped)")
	}
	// An island inside a hole does not intersect.
	annulus := NewFromPolygon(geom.NewPolygon(sq(0, 0, 3), sq(0, 0, 2)), 3)
	island := NewFromPolygon(geom.NewPolygon(sq(0, 0, 1)), 3)
	if Intersects(annulus, island, &c) {
		t.Error("island inside the hole must not intersect the annulus")
	}
}

func TestDifferentHeights(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	big := NewFromPolygon(starPoly(rng, 0, 0, 1, 300), 3)
	small := NewFromPolygon(starPoly(rng, 0.2, 0.2, 0.2, 6), 3)
	if big.Height() == small.Height() {
		t.Skip("trees happen to have equal heights")
	}
	truthPoly1 := starPoly(rng, 5, 5, 1, 300) // disjoint pair with different heights
	truthPoly2 := starPoly(rng, 0, 0, 0.3, 6)
	t1 := NewFromPolygon(truthPoly1, 3)
	t2 := NewFromPolygon(truthPoly2, 3)
	var c ops.Counters
	if Intersects(t1, t2, &c) != truthPoly1.Intersects(truthPoly2) {
		t.Error("different-height trees disagree with ground truth")
	}
	if Intersects(big, small, &c) == false {
		// small overlaps big's region around (0.2, 0.2)? verify via truth
		pb := starPoly(rng, 0, 0, 1, 300)
		_ = pb
	}
}

// TestCapacity3CheapestOnAverage reproduces the Figure 17 trend: with
// M = 3 the synchronized traversal performs no more weighted work than
// with M = 5 on complex objects.
func TestCapacity3CheapestOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	w := ops.PaperWeights()
	costs := map[int]float64{}
	type pair struct{ a, b *geom.Polygon }
	var pairs []pair
	for i := 0; i < 40; i++ {
		pairs = append(pairs, pair{
			a: starPoly(rng, 0, 0, 1, 200),
			b: starPoly(rng, rng.Float64()*0.8-0.4, rng.Float64()*0.8-0.4, 1, 200),
		})
	}
	for _, m := range []int{3, 5} {
		var c ops.Counters
		for _, pr := range pairs {
			t1 := NewFromPolygon(pr.a, m)
			t2 := NewFromPolygon(pr.b, m)
			Intersects(t1, t2, &c)
		}
		costs[m] = c.Cost(w)
	}
	if costs[3] > costs[5]*1.15 {
		t.Errorf("M=3 cost %v should not exceed M=5 cost %v by >15%%", costs[3], costs[5])
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	empty := New(nil, 3)
	if empty.NumTrapezoids() != 0 || empty.Height() != 1 {
		t.Error("empty tree malformed")
	}
	other := NewFromPolygon(geom.NewPolygon(sq(0, 0, 1)), 3)
	var c ops.Counters
	if Intersects(empty, other, &c) || Intersects(other, empty, &c) {
		t.Error("empty tree intersects nothing")
	}
	if empty.ContainsPoint(geom.Point{}, &c) {
		t.Error("empty tree contains nothing")
	}
}

func TestNewPanicsOnTinyCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("capacity 1 must panic")
		}
	}()
	New([]decomp.Trapezoid{}, 1)
}

// TestValidateRejectsImproperRects pins the precondition of the
// traversals' rectangle tests (overlaps, gap2): every entry rectangle is
// proper. A hand-built tree whose directory holds an inverted or NaN
// rectangle over an empty child — which the bounds checks alone accept,
// an empty child's bounds being empty — fails Validate, and so would a
// decoded one.
func TestValidateRejectsImproperRects(t *testing.T) {
	leaf := NewFromPolygon(geom.NewPolygon(sq(0, 0, 1)), 3)
	if leaf.Height() != 1 {
		t.Fatalf("fixture tree has height %d, want a single leaf", leaf.Height())
	}
	nan := math.NaN()
	for _, bad := range []geom.Rect{
		{MinX: 1, MinY: 0, MaxX: 0, MaxY: 1},
		{MinX: 0, MinY: 1, MaxX: 1, MaxY: 0},
		geom.EmptyRect(),
		{MinX: nan, MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: nan},
	} {
		tr := &Tree{
			root: &node{entries: []entry{
				{rect: leaf.bounds, child: leaf.root},
				{rect: bad, child: &node{leaf: true}},
			}},
			capacity: 3,
			minFill:  2,
			height:   2,
			numTraps: leaf.numTraps,
		}
		tr.bounds = tr.root.bounds()
		err := tr.Validate()
		if err == nil || !strings.Contains(err.Error(), "inverted or NaN") {
			t.Errorf("entry rect %v: Validate = %v, want the inverted-or-NaN error", bad, err)
		}
	}
	if err := leaf.Validate(); err != nil {
		t.Errorf("fixture tree: %v", err)
	}
}
