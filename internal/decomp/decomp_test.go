package decomp

import (
	"math"
	"math/rand"
	"testing"

	"spatialjoin/internal/convex"
	"spatialjoin/internal/geom"
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

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func sumTrapArea(ts []Trapezoid) float64 {
	var s float64
	for _, t := range ts {
		s += t.Area()
	}
	return s
}

func TestTrapezoidizeSquare(t *testing.T) {
	p := geom.NewPolygon(sq(0, 0, 1))
	traps := Trapezoidize(p)
	if len(traps) != 1 {
		t.Fatalf("square must decompose into 1 trapezoid, got %d", len(traps))
	}
	if !almostEq(traps[0].Area(), 4, 1e-9) {
		t.Errorf("trapezoid area = %v, want 4", traps[0].Area())
	}
}

func TestTrapezoidizeLShape(t *testing.T) {
	p := geom.NewPolygon([]geom.Point{
		{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 2}, {X: 0, Y: 2},
	})
	traps := Trapezoidize(p)
	if got := sumTrapArea(traps); !almostEq(got, 3, 1e-9) {
		t.Errorf("trapezoid areas sum to %v, want 3", got)
	}
	if len(traps) != 2 {
		t.Errorf("L-shape: got %d trapezoids, want 2 (one per slab)", len(traps))
	}
}

func TestTrapezoidizeWithHole(t *testing.T) {
	p := geom.NewPolygon(sq(0, 0, 2), sq(0, 0, 1))
	traps := Trapezoidize(p)
	if got := sumTrapArea(traps); !almostEq(got, 12, 1e-9) {
		t.Errorf("annulus trapezoid areas sum to %v, want 12", got)
	}
	// No trapezoid may cover the hole interior.
	for _, tr := range traps {
		if tr.ContainsPoint(geom.Point{X: 0, Y: 0}) {
			t.Errorf("trapezoid %v covers the hole center", tr)
		}
	}
	// The annulus is fully covered.
	for _, pt := range []geom.Point{{X: 1.5, Y: 0}, {X: -1.5, Y: 0}, {X: 0, Y: 1.5}, {X: 0, Y: -1.5}} {
		found := false
		for _, tr := range traps {
			if tr.ContainsPoint(pt) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no trapezoid covers annulus point %v", pt)
		}
	}
}

func TestTrapezoidizePropertyAreaAndContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		p := starPoly(rng, 0, 0, 1, 5+rng.Intn(40))
		traps := Trapezoidize(p)
		if got := sumTrapArea(traps); !almostEq(got, p.Area(), 1e-6*math.Max(1, p.Area())) {
			t.Fatalf("trial %d: areas sum to %v, want %v", trial, got, p.Area())
		}
		// Trapezoid centers lie inside the polygon.
		for _, tr := range traps {
			c := tr.Ring().Centroid()
			if !p.ContainsPoint(c) {
				t.Fatalf("trial %d: trapezoid centroid %v outside polygon", trial, c)
			}
		}
		// Random interior points are covered by some trapezoid, exterior
		// points by none.
		for k := 0; k < 50; k++ {
			pt := geom.Point{X: rng.Float64()*2.4 - 1.2, Y: rng.Float64()*2.4 - 1.2}
			in := false
			for _, tr := range traps {
				if tr.ContainsPoint(pt) {
					in = true
					break
				}
			}
			if in != p.ContainsPoint(pt) {
				// Boundary-adjacent points may disagree within tolerance.
				if distToBoundary(p, pt) > 1e-6 {
					t.Fatalf("trial %d: coverage mismatch at %v (traps %v, poly %v)",
						trial, pt, in, p.ContainsPoint(pt))
				}
			}
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

func TestTrapezoidIntersects(t *testing.T) {
	a := Trapezoid{P: [4]geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 2}, {X: 0, Y: 2}}}
	b := Trapezoid{P: [4]geom.Point{{X: 1, Y: 1}, {X: 3, Y: 1}, {X: 3, Y: 3}, {X: 1, Y: 3}}}
	c := Trapezoid{P: [4]geom.Point{{X: 5, Y: 5}, {X: 6, Y: 5}, {X: 6, Y: 6}, {X: 5, Y: 6}}}
	if !a.Intersects(b) {
		t.Error("overlapping trapezoids must intersect")
	}
	if a.Intersects(c) {
		t.Error("disjoint trapezoids must not intersect")
	}
	// Degenerate (triangle) trapezoid.
	tri := Trapezoid{P: [4]geom.Point{{X: 0, Y: 0}, {X: 2, Y: 1}, {X: 2, Y: 1}, {X: 0, Y: 2}}}
	if !tri.Intersects(a) {
		t.Error("triangle-degenerate trapezoid must intersect the square")
	}
	if tri.Intersects(c) {
		t.Error("triangle-degenerate trapezoid must not reach the far square")
	}
}

func TestTriangulateSquareAndStar(t *testing.T) {
	p := geom.NewPolygon(sq(0, 0, 1))
	tris := triangulate(p)
	if len(tris) != 2 {
		t.Errorf("square: got %d triangles, want 2", len(tris))
	}
	var area float64
	for _, tr := range tris {
		area += tr.Area()
	}
	if !almostEq(area, 4, 1e-9) {
		t.Errorf("triangle areas sum to %v, want 4", area)
	}
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 30; trial++ {
		poly := starPoly(rng, 0, 0, 1, 5+rng.Intn(30))
		tris := triangulate(poly)
		if len(tris) != poly.NumVertices()-2 {
			t.Fatalf("trial %d: ear clipping must produce n-2 triangles, got %d for n=%d",
				trial, len(tris), poly.NumVertices())
		}
		var area float64
		for _, tr := range tris {
			area += tr.Area()
		}
		if !almostEq(area, poly.Area(), 1e-6) {
			t.Fatalf("trial %d: triangle areas sum to %v, want %v", trial, area, poly.Area())
		}
	}
}

func TestTriangulateWithHoles(t *testing.T) {
	p := geom.NewPolygon(sq(0, 0, 2), sq(0, 0, 1))
	tris := triangulate(p)
	var area float64
	for _, tr := range tris {
		area += tr.Area()
	}
	if !almostEq(area, 12, 1e-9) {
		t.Errorf("annulus triangle areas sum to %v, want 12", area)
	}
}

func TestConvexParts(t *testing.T) {
	// A convex polygon collapses back to one part.
	p := geom.NewPolygon(sq(0, 0, 1))
	parts := convexParts(p)
	if len(parts) != 1 {
		t.Errorf("square convex parts = %d, want 1", len(parts))
	}
	// L-shape needs at least 2 convex parts.
	l := geom.NewPolygon([]geom.Point{
		{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 2}, {X: 0, Y: 2},
	})
	parts = convexParts(l)
	if len(parts) < 2 {
		t.Errorf("L-shape convex parts = %d, want >= 2", len(parts))
	}
	var area float64
	for _, part := range parts {
		if !part.IsConvex() {
			t.Error("every part must be convex")
		}
		area += part.Area()
	}
	if !almostEq(area, 3, 1e-9) {
		t.Errorf("convex part areas sum to %v, want 3", area)
	}
}

func TestConvexPartsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		poly := starPoly(rng, 0, 0, 1, 6+rng.Intn(25))
		parts := convexParts(poly)
		tris := triangulate(poly)
		if len(parts) > len(tris) {
			t.Fatalf("trial %d: merging must not increase component count", trial)
		}
		var area float64
		for _, part := range parts {
			if !part.IsConvex() {
				t.Fatalf("trial %d: non-convex part", trial)
			}
			area += part.Area()
		}
		if !almostEq(area, poly.Area(), 1e-6) {
			t.Fatalf("trial %d: convex part areas %v != polygon area %v", trial, area, poly.Area())
		}
	}
}

func TestDecompositionStats(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	poly := starPoly(rng, 0, 0, 1, 30)
	ts := TrapezoidStats(poly)
	tr := TriangleStats(poly)
	cv := ConvexPartStats(poly)
	for _, s := range []Stats{ts, tr, cv} {
		if !almostEq(s.TotalArea, poly.Area(), 1e-6) {
			t.Errorf("stats area %v != polygon area %v", s.TotalArea, poly.Area())
		}
		if s.Components <= 0 {
			t.Error("stats must report components")
		}
	}
	if cv.Components > tr.Components {
		t.Error("convex parts must be at most as many as triangles")
	}
}

// TestTrapezoidTestsOnRawCorners: Intersects and WithinDist hand the
// corner array to the convex kernels as it is, coincident corners of
// triangle-degenerate components included. Both must agree with the same
// kernels run on the deduplicated ring.
func TestTrapezoidTestsOnRawCorners(t *testing.T) {
	rng := rand.New(rand.NewSource(389))
	randTrap := func() Trapezoid {
		x0, y0 := 4*rng.Float64(), 4*rng.Float64()
		w := 0.1 + rng.Float64()
		tr := Trapezoid{P: [4]geom.Point{
			{X: x0, Y: y0}, {X: x0 + w, Y: y0 + rng.Float64() - 0.5},
			{X: x0 + w, Y: y0 + 1 + rng.Float64()}, {X: x0, Y: y0 + 0.6 + rng.Float64()},
		}}
		switch rng.Intn(3) {
		case 0:
			tr.P[3] = tr.P[0] // left side degenerates to a point
		case 1:
			tr.P[2] = tr.P[1] // right side degenerates to a point
		}
		return tr
	}
	triangles := 0
	for i := 0; i < 3000; i++ {
		a, b := randTrap(), randTrap()
		ra, rb := a.dedup(), b.dedup()
		if len(ra) == 3 {
			triangles++
		}
		if got, want := a.Intersects(b), convex.SATIntersects(ra, rb); got != want {
			t.Fatalf("Intersects = %v, SAT on deduplicated rings = %v\na=%v\nb=%v", got, want, a, b)
		}
		d := convex.Distance(ra, rb)
		for _, eps := range []float64{0, d * 0.5, d * (1 - 1e-6), d * (1 + 1e-6), d + 0.3} {
			if got, want := a.WithinDist(b, eps), d <= eps; got != want {
				t.Fatalf("WithinDist(%.17g) = %v, distance of deduplicated rings = %.17g\na=%v\nb=%v", eps, got, d, a, b)
			}
		}
	}
	if triangles < 500 {
		t.Fatalf("only %d triangle-degenerate components generated", triangles)
	}
}
