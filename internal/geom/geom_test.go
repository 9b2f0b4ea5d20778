package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCrossOrientation(t *testing.T) {
	o := Point{0, 0}
	a := Point{1, 0}
	if got := Orientation(o, a, Point{1, 1}); got != 1 {
		t.Errorf("ccw turn: got %d, want 1", got)
	}
	if got := Orientation(o, a, Point{1, -1}); got != -1 {
		t.Errorf("cw turn: got %d, want -1", got)
	}
	if got := Orientation(o, a, Point{2, 0}); got != 0 {
		t.Errorf("collinear: got %d, want 0", got)
	}
}

func TestPointOps(t *testing.T) {
	p := Point{3, 4}
	if p.Norm() != 5 {
		t.Errorf("Norm = %v, want 5", p.Norm())
	}
	if d := p.Dist(Point{0, 0}); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	q := p.Rotate(math.Pi / 2)
	if !almostEq(q.X, -4, 1e-12) || !almostEq(q.Y, 3, 1e-12) {
		t.Errorf("Rotate 90° = %v, want (-4,3)", q)
	}
	r := p.RotateAround(math.Pi, Point{3, 4})
	if !almostEq(r.X, 3, 1e-12) || !almostEq(r.Y, 4, 1e-12) {
		t.Errorf("RotateAround pivot = %v, want (3,4)", r)
	}
	if got := (Point{1, 2}).Add(Point{3, 5}); got != (Point{4, 7}) {
		t.Errorf("Add = %v", got)
	}
	if got := (Point{1, 2}).Sub(Point{3, 5}); got != (Point{-2, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := (Point{1, 2}).Dot(Point{3, 5}); got != 13 {
		t.Errorf("Dot = %v", got)
	}
	if got := (Point{1, 0}).CrossVec(Point{0, 1}); got != 1 {
		t.Errorf("CrossVec = %v", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 4, 2}
	if r.Area() != 8 {
		t.Errorf("Area = %v, want 8", r.Area())
	}
	if r.Margin() != 6 {
		t.Errorf("Margin = %v, want 6", r.Margin())
	}
	if r.Center() != (Point{2, 1}) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.ContainsPoint(Point{0, 0}) || !r.ContainsPoint(Point{4, 2}) {
		t.Error("corners must be contained (closed region)")
	}
	if r.ContainsPoint(Point{4.001, 1}) {
		t.Error("outside point contained")
	}
}

func TestRectEmpty(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	if e.Area() != 0 || e.Width() != 0 || e.Height() != 0 || e.Margin() != 0 {
		t.Error("empty rect measures must be 0")
	}
	r := Rect{1, 1, 2, 2}
	if e.Union(r) != r || r.Union(e) != r {
		t.Error("empty must be the identity of Union")
	}
	if e.Intersects(r) || r.Intersects(e) {
		t.Error("empty intersects nothing")
	}
	if !r.Contains(e) {
		t.Error("everything contains the empty rect")
	}
}

func TestRectIntersection(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 3}
	got := a.Intersection(b)
	if got != (Rect{1, 1, 2, 2}) {
		t.Errorf("Intersection = %v", got)
	}
	if a.OverlapArea(b) != 1 {
		t.Errorf("OverlapArea = %v, want 1", a.OverlapArea(b))
	}
	c := Rect{5, 5, 6, 6}
	if !a.Intersection(c).IsEmpty() {
		t.Error("disjoint intersection must be empty")
	}
	// Touching edge: closed semantics.
	d := Rect{2, 0, 3, 2}
	if !a.Intersects(d) {
		t.Error("touching rects must intersect")
	}
	if a.Intersection(d).Area() != 0 {
		t.Error("touching intersection has zero area")
	}
}

func TestRectEnlargementTranslateExpand(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	if e := a.Enlargement(Rect{0, 0, 2, 1}); e != 1 {
		t.Errorf("Enlargement = %v, want 1", e)
	}
	if got := a.Translate(1, 2); got != (Rect{1, 2, 2, 3}) {
		t.Errorf("Translate = %v", got)
	}
	if got := a.Expand(1); got != (Rect{-1, -1, 2, 2}) {
		t.Errorf("Expand = %v", got)
	}
	if got := a.Expand(-1); !got.IsEmpty() {
		t.Errorf("over-shrunk rect must be empty, got %v", got)
	}
}

func TestRectPropertyUnionContains(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := Rect{ax, ay, ax + math.Abs(aw), ay + math.Abs(ah)}
		b := Rect{bx, by, bx + math.Abs(bw), by + math.Abs(bh)}
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b) &&
			u.Area()+Eps >= a.Area() && u.Area()+Eps >= b.Area()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRectPropertyIntersectionSymmetric(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := Rect{ax, ay, ax + math.Abs(aw), ay + math.Abs(ah)}
		b := Rect{bx, by, bx + math.Abs(bw), by + math.Abs(bh)}
		if a.Intersects(b) != b.Intersects(a) {
			return false
		}
		i := a.Intersection(b)
		return a.Intersects(b) == !i.IsEmpty() || (i.IsEmpty() && a.Intersects(b) && i.Area() == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSegmentIntersects(t *testing.T) {
	cases := []struct {
		name string
		s, t Segment
		want bool
	}{
		{"proper cross", Segment{Point{0, 0}, Point{2, 2}}, Segment{Point{0, 2}, Point{2, 0}}, true},
		{"disjoint parallel", Segment{Point{0, 0}, Point{1, 0}}, Segment{Point{0, 1}, Point{1, 1}}, false},
		{"shared endpoint", Segment{Point{0, 0}, Point{1, 1}}, Segment{Point{1, 1}, Point{2, 0}}, true},
		{"T junction", Segment{Point{0, 0}, Point{2, 0}}, Segment{Point{1, 0}, Point{1, 1}}, true},
		{"collinear overlap", Segment{Point{0, 0}, Point{2, 0}}, Segment{Point{1, 0}, Point{3, 0}}, true},
		{"collinear disjoint", Segment{Point{0, 0}, Point{1, 0}}, Segment{Point{2, 0}, Point{3, 0}}, false},
		{"near miss", Segment{Point{0, 0}, Point{1, 1}}, Segment{Point{1.01, 1}, Point{2, 0}}, false},
	}
	for _, c := range cases {
		if got := c.s.Intersects(c.t); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
		if got := c.t.Intersects(c.s); got != c.want {
			t.Errorf("%s (swapped): got %v, want %v", c.name, got, c.want)
		}
	}
}

// IntersectionPoint returns a common point of two intersecting segments,
// the witness the tests hold Segment.Intersects to.
// The second result is false when the segments do not intersect. For
// collinear overlaps an arbitrary shared endpoint is returned.
func (s Segment) IntersectionPoint(t Segment) (Point, bool) {
	d1 := s.B.Sub(s.A)
	d2 := t.B.Sub(t.A)
	den := d1.CrossVec(d2)
	if math.Abs(den) > Eps {
		u := t.A.Sub(s.A).CrossVec(d2) / den
		v := t.A.Sub(s.A).CrossVec(d1) / den
		if u >= -Eps && u <= 1+Eps && v >= -Eps && v <= 1+Eps {
			return s.A.Add(d1.Scale(u)), true
		}
		return Point{}, false
	}
	// Parallel: only collinear overlap can intersect.
	for _, p := range []Point{t.A, t.B} {
		if s.ContainsPoint(p) {
			return p, true
		}
	}
	for _, p := range []Point{s.A, s.B} {
		if t.ContainsPoint(p) {
			return p, true
		}
	}
	return Point{}, false
}

func TestSegmentIntersectionPoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{2, 2}}
	u := Segment{Point{0, 2}, Point{2, 0}}
	p, ok := s.IntersectionPoint(u)
	if !ok || !almostEq(p.X, 1, 1e-9) || !almostEq(p.Y, 1, 1e-9) {
		t.Errorf("IntersectionPoint = %v, %v", p, ok)
	}
	if _, ok := s.IntersectionPoint(Segment{Point{5, 5}, Point{6, 6}}); ok {
		t.Error("disjoint segments must not intersect")
	}
	// Collinear overlap returns some shared point.
	p, ok = Segment{Point{0, 0}, Point{2, 0}}.IntersectionPoint(Segment{Point{1, 0}, Point{3, 0}})
	if !ok || !(Segment{Point{0, 0}, Point{2, 0}}).ContainsPoint(p) {
		t.Errorf("collinear overlap: got %v, %v", p, ok)
	}
}

func TestSegmentIntersectsRect(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	cases := []struct {
		name string
		s    Segment
		want bool
	}{
		{"inside", Segment{Point{0.5, 0.5}, Point{1, 1}}, true},
		{"crossing", Segment{Point{-1, 1}, Point{3, 1}}, true},
		{"outside", Segment{Point{3, 3}, Point{4, 4}}, false},
		{"touching corner", Segment{Point{2, 2}, Point{3, 3}}, true},
		{"diagonal miss", Segment{Point{5, 0}, Point{0, 5}}, false},
		{"diagonal cut", Segment{Point{2.5, 0}, Point{0, 2.5}}, true},
	}
	for _, c := range cases {
		if got := c.s.IntersectsRect(r); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSegmentYAtAndDist(t *testing.T) {
	s := Segment{Point{0, 0}, Point{2, 2}}
	if y := s.YAt(1); !almostEq(y, 1, 1e-12) {
		t.Errorf("YAt(1) = %v", y)
	}
	v := Segment{Point{1, 0}, Point{1, 5}}
	if y := v.YAt(1); y != 0 {
		t.Errorf("vertical YAt = %v, want 0 (min endpoint)", y)
	}
	if d := s.DistToPoint(Point{2, 0}); !almostEq(d, math.Sqrt2, 1e-12) {
		t.Errorf("DistToPoint = %v", d)
	}
	if d := s.DistToPoint(Point{3, 3}); !almostEq(d, math.Sqrt2, 1e-12) {
		t.Errorf("DistToPoint beyond end = %v", d)
	}
	deg := Segment{Point{1, 1}, Point{1, 1}}
	if d := deg.DistToPoint(Point{2, 1}); !almostEq(d, 1, 1e-12) {
		t.Errorf("degenerate DistToPoint = %v", d)
	}
}

func square(cx, cy, half float64) []Point {
	return []Point{
		{cx - half, cy - half}, {cx + half, cy - half},
		{cx + half, cy + half}, {cx - half, cy + half},
	}
}

func TestRingAreaOrientation(t *testing.T) {
	r := NewRing(square(0, 0, 1))
	if !r.IsCCW() {
		t.Error("NewRing must normalize to CCW")
	}
	if !almostEq(r.Area(), 4, 1e-12) {
		t.Errorf("Area = %v, want 4", r.Area())
	}
	// Clockwise input is normalized.
	cw := []Point{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
	if !NewRing(cw).IsCCW() {
		t.Error("clockwise input must be reversed")
	}
	rev := r.Reversed()
	if rev.IsCCW() {
		t.Error("Reversed must flip orientation")
	}
	if !almostEq(rev.Area(), r.Area(), 1e-12) {
		t.Error("Reversed must preserve area")
	}
}

func TestRingPanicsOnTooFew(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRing with 2 points must panic")
		}
	}()
	NewRing([]Point{{0, 0}, {1, 1}})
}

func TestRingContainsPoint(t *testing.T) {
	r := NewRing(square(0, 0, 1))
	if !r.ContainsPoint(Point{0, 0}) {
		t.Error("center must be inside")
	}
	if !r.ContainsPoint(Point{1, 0}) {
		t.Error("boundary must be inside (closed region)")
	}
	if !r.ContainsPoint(Point{1, 1}) {
		t.Error("corner must be inside")
	}
	if r.ContainsPoint(Point{1.001, 0}) {
		t.Error("outside point reported inside")
	}
	// Concave ring: an L shape.
	l := NewRing([]Point{{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}})
	if !l.ContainsPoint(Point{0.5, 1.5}) {
		t.Error("L-shape upper arm must contain point")
	}
	if l.ContainsPoint(Point{1.5, 1.5}) {
		t.Error("L-shape notch must not contain point")
	}
}

func TestRingCentroid(t *testing.T) {
	r := NewRing(square(3, -2, 1))
	c := r.Centroid()
	if !almostEq(c.X, 3, 1e-9) || !almostEq(c.Y, -2, 1e-9) {
		t.Errorf("Centroid = %v, want (3,-2)", c)
	}
}

func TestRingConvexAndSelfIntersect(t *testing.T) {
	if !NewRing(square(0, 0, 1)).IsConvex() {
		t.Error("square must be convex")
	}
	l := NewRing([]Point{{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}})
	if l.IsConvex() {
		t.Error("L-shape must not be convex")
	}
	if l.SelfIntersects() {
		t.Error("simple ring reported self-intersecting")
	}
	bow := Ring{{0, 0}, {1, 1}, {1, 0}, {0, 1}}
	if !bow.SelfIntersects() {
		t.Error("bowtie must self-intersect")
	}
}

func TestPolygonWithHoles(t *testing.T) {
	p := NewPolygon(square(0, 0, 2), square(0, 0, 1))
	if err := p.ValidateSimple(); err != nil {
		t.Fatalf("ValidateSimple: %v", err)
	}
	if !almostEq(p.Area(), 16-4, 1e-12) {
		t.Errorf("Area = %v, want 12", p.Area())
	}
	if p.NumVertices() != 8 {
		t.Errorf("NumVertices = %d, want 8", p.NumVertices())
	}
	if p.ContainsPoint(Point{0, 0}) {
		t.Error("hole interior must not be contained")
	}
	if !p.ContainsPoint(Point{0, 1}) {
		t.Error("hole rim must be contained (closed region)")
	}
	if !p.ContainsPoint(Point{0, 1.5}) {
		t.Error("annulus interior must be contained")
	}
	if p.ContainsPoint(Point{0, 3}) {
		t.Error("outside point contained")
	}
}

func TestPolygonIntersects(t *testing.T) {
	a := NewPolygon(square(0, 0, 1))
	cases := []struct {
		name string
		b    *Polygon
		want bool
	}{
		{"overlapping", NewPolygon(square(1, 1, 1)), true},
		{"disjoint", NewPolygon(square(5, 5, 1)), false},
		{"contained", NewPolygon(square(0, 0, 0.25)), true},
		{"containing", NewPolygon(square(0, 0, 4)), true},
		{"touching edge", NewPolygon(square(2, 0, 1)), true},
		{"MBRs overlap, objects do not", NewPolygon([]Point{{1.05, 1.05}, {3, 1.2}, {3, 3}, {1.2, 3}}), false},
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("%s (swapped): got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPolygonInHoleNotIntersecting(t *testing.T) {
	annulus := NewPolygon(square(0, 0, 3), square(0, 0, 2))
	island := NewPolygon(square(0, 0, 1))
	if annulus.Intersects(island) {
		t.Error("island inside hole must not intersect the annulus")
	}
	if island.Intersects(annulus) {
		t.Error("island inside hole must not intersect the annulus (swapped)")
	}
	bridge := NewPolygon(square(2, 0, 0.5)) // straddles the hole rim
	if !annulus.Intersects(bridge) {
		t.Error("polygon straddling the hole rim must intersect")
	}
}

func TestPolygonTransformTranslate(t *testing.T) {
	p := NewPolygon(square(0, 0, 1), square(0, 0, 0.5))
	q := p.Translate(10, -5)
	if !almostEq(q.Area(), p.Area(), 1e-12) {
		t.Error("Translate must preserve area")
	}
	if q.Bounds() != p.Bounds().Translate(10, -5) {
		t.Error("Translate bounds mismatch")
	}
	r := p.Transform(func(pt Point) Point { return pt.Rotate(math.Pi / 4) })
	if !almostEq(r.Area(), p.Area(), 1e-9) {
		t.Error("rotation must preserve area")
	}
	if err := r.ValidateSimple(); err != nil {
		t.Errorf("rotated polygon invalid: %v", err)
	}
}

func TestValidateSimpleFailures(t *testing.T) {
	bad := &Polygon{Outer: Ring{{0, 0}, {1, 1}, {1, 0}, {0, 1}}}
	if bad.Outer.IsCCW() {
		// ensure orientation is fine so we reach the self-intersection check
		if err := bad.ValidateSimple(); err == nil {
			t.Error("self-intersecting outer ring must fail validation")
		}
	}
	holeOutside := NewPolygon(square(0, 0, 1))
	holeOutside.Holes = append(holeOutside.Holes, NewRing(square(5, 5, 0.5)).Reversed())
	if err := holeOutside.ValidateSimple(); err == nil {
		t.Error("hole outside outer ring must fail validation")
	}
	// A bay of the outer ring reaches between two hole vertices: every
	// hole vertex lies inside, yet the hole's top edge crosses the bay.
	bay := NewPolygon(Ring{{0, 0}, {4, 0}, {4, 4}, {2.2, 4}, {2, 2.5}, {1.8, 4}, {0, 4}})
	bay.Holes = append(bay.Holes, NewRing(Ring{{1, 1}, {3, 1}, {3, 3}, {1, 3}}).Reversed())
	for _, v := range bay.Holes[0] {
		if !bay.Outer.ContainsPoint(v) {
			t.Fatalf("hole vertex %v outside: the case no longer tests the edge check", v)
		}
	}
	if err := bay.ValidateSimple(); err == nil {
		t.Error("hole edge crossing the outer ring must fail validation")
	}
}

// randomStar returns a random star-shaped simple ring around (cx, cy).
func randomStar(rng *rand.Rand, cx, cy, radius float64, n int) Ring {
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		r := radius * (0.4 + 0.6*rng.Float64())
		pts[i] = Point{cx + r*math.Cos(ang), cy + r*math.Sin(ang)}
	}
	return NewRing(pts)
}

func TestPropertyStarRingSimpleAndContainsCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		r := randomStar(rng, 0, 0, 1, 5+rng.Intn(30))
		if r.SelfIntersects() {
			t.Fatalf("star ring %d self-intersects", i)
		}
		if !r.ContainsPoint(Point{0, 0}) {
			t.Fatalf("star ring %d does not contain its center", i)
		}
		if r.Area() <= 0 {
			t.Fatalf("star ring %d has non-positive area", i)
		}
		b := r.Bounds()
		for _, p := range r {
			if !b.ContainsPoint(p) {
				t.Fatalf("bounds must contain every vertex")
			}
		}
	}
}

func TestPropertySegmentIntersectionConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		s := Segment{Point{rng.Float64(), rng.Float64()}, Point{rng.Float64(), rng.Float64()}}
		u := Segment{Point{rng.Float64(), rng.Float64()}, Point{rng.Float64(), rng.Float64()}}
		got := s.Intersects(u)
		p, ok := s.IntersectionPoint(u)
		if got != ok {
			t.Fatalf("Intersects=%v but IntersectionPoint ok=%v for %v %v", got, ok, s, u)
		}
		if ok {
			if s.DistToPoint(p) > 1e-6 || u.DistToPoint(p) > 1e-6 {
				t.Fatalf("intersection point %v not on both segments", p)
			}
		}
	}
}

func TestPropertyPolygonIntersectsCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	polys := make([]*Polygon, 30)
	for i := range polys {
		polys[i] = &Polygon{Outer: randomStar(rng, rng.Float64()*4, rng.Float64()*4, 0.8, 6+rng.Intn(12))}
	}
	for i := range polys {
		for j := range polys {
			if polys[i].Intersects(polys[j]) != polys[j].Intersects(polys[i]) {
				t.Fatalf("Intersects not symmetric for %d,%d", i, j)
			}
		}
		if !polys[i].Intersects(polys[i]) {
			t.Fatalf("polygon must intersect itself")
		}
	}
}
