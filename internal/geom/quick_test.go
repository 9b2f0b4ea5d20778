package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// boundedPoint generates well-conditioned coordinates for quick checks.
func boundedPoint(rng *rand.Rand) Point {
	return Point{X: rng.Float64()*20 - 10, Y: rng.Float64()*20 - 10}
}

func TestQuickRotatePreservesDistance(t *testing.T) {
	f := func(x1, y1, x2, y2, angScale float64) bool {
		p := Point{X: math.Mod(x1, 100), Y: math.Mod(y1, 100)}
		q := Point{X: math.Mod(x2, 100), Y: math.Mod(y2, 100)}
		ang := math.Mod(angScale, 2*math.Pi)
		d0 := p.Dist(q)
		d1 := p.Rotate(ang).Dist(q.Rotate(ang))
		return math.Abs(d0-d1) < 1e-6*(1+d0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickCrossAntisymmetric(t *testing.T) {
	f := func(ox, oy, ax, ay, bx, by float64) bool {
		o := Point{X: math.Mod(ox, 50), Y: math.Mod(oy, 50)}
		a := Point{X: math.Mod(ax, 50), Y: math.Mod(ay, 50)}
		b := Point{X: math.Mod(bx, 50), Y: math.Mod(by, 50)}
		return Cross(o, a, b) == -Cross(o, b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickSegmentIntersectsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	for i := 0; i < 2000; i++ {
		s := Segment{A: boundedPoint(rng), B: boundedPoint(rng)}
		u := Segment{A: boundedPoint(rng), B: boundedPoint(rng)}
		if s.Intersects(u) != u.Intersects(s) {
			t.Fatalf("Intersects not symmetric: %v %v", s, u)
		}
		// A segment always intersects itself and its reverse.
		if !s.Intersects(s) || !s.Intersects(Segment{A: s.B, B: s.A}) {
			t.Fatalf("self-intersection violated: %v", s)
		}
		// Translation invariance.
		dx, dy := rng.Float64()*5, rng.Float64()*5
		st := Segment{A: s.A.Add(Point{X: dx, Y: dy}), B: s.B.Add(Point{X: dx, Y: dy})}
		ut := Segment{A: u.A.Add(Point{X: dx, Y: dy}), B: u.B.Add(Point{X: dx, Y: dy})}
		if s.Intersects(u) != st.Intersects(ut) {
			t.Fatalf("translation changed intersection: %v %v", s, u)
		}
	}
}

func TestQuickRectUnionMonotone(t *testing.T) {
	f := func(ax, ay, aw, ah, px, py float64) bool {
		a := Rect{MinX: ax, MinY: ay, MaxX: ax + math.Abs(aw), MaxY: ay + math.Abs(ah)}
		p := Point{X: px, Y: py}
		e := a.ExtendPoint(p)
		return e.Contains(a) && e.ContainsPoint(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickRingAreaInvariantUnderRotationAndTranslation(t *testing.T) {
	rng := rand.New(rand.NewSource(709))
	for i := 0; i < 200; i++ {
		r := randomStar(rng, 0, 0, 1+rng.Float64()*3, 4+rng.Intn(40))
		area := r.Area()
		ang := rng.Float64() * 2 * math.Pi
		dx, dy := rng.Float64()*10-5, rng.Float64()*10-5
		tr := r.Transform(func(p Point) Point { return p.Rotate(ang).Add(Point{X: dx, Y: dy}) })
		if math.Abs(tr.Area()-area) > 1e-6*(1+area) {
			t.Fatalf("area changed under rigid motion: %v vs %v", tr.Area(), area)
		}
		if tr.IsCCW() != r.IsCCW() {
			t.Fatal("orientation changed under rigid motion")
		}
	}
}

func TestQuickPolygonAreaDecomposesOverHoles(t *testing.T) {
	rng := rand.New(rand.NewSource(719))
	for i := 0; i < 100; i++ {
		outer := randomStar(rng, 0, 0, 4, 8+rng.Intn(20))
		hole := randomStar(rng, 0, 0, 0.8, 5+rng.Intn(10))
		inside := true
		for _, v := range hole {
			if !outer.ContainsPoint(v) {
				inside = false
				break
			}
		}
		if !inside {
			continue
		}
		p := &Polygon{Outer: outer, Holes: []Ring{hole.Reversed()}}
		want := outer.Area() - hole.Area()
		if math.Abs(p.Area()-want) > 1e-9 {
			t.Fatalf("polygon area %v != outer − hole %v", p.Area(), want)
		}
	}
}

func TestQuickContainsPolygonTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(727))
	for i := 0; i < 150; i++ {
		big := &Polygon{Outer: randomStar(rng, 0, 0, 3, 10)}
		mid := &Polygon{Outer: randomStar(rng, 0, 0, 1.1, 8)}
		small := &Polygon{Outer: randomStar(rng, 0, 0, 0.35, 6)}
		if big.ContainsPolygon(mid) && mid.ContainsPolygon(small) {
			if !big.ContainsPolygon(small) {
				t.Fatal("containment must be transitive")
			}
		}
		// Containment implies intersection.
		if big.ContainsPolygon(mid) && !big.Intersects(mid) {
			t.Fatal("containment must imply intersection")
		}
		// Mutual containment only for equal regions; distinct stars can't.
		if big.ContainsPolygon(mid) && mid.ContainsPolygon(big) {
			if math.Abs(big.Area()-mid.Area()) > 1e-9 {
				t.Fatal("mutual containment of different-area regions")
			}
		}
	}
}

// TestSquaredDistancesMatchTheirRoots pins the squared helpers the
// threshold kernels use to the value-returning distances they shadow:
// Dist2 is Dist², and WithinDist(·, eps²) is DistToSegment ≤ eps away
// from the rounding band around eps.
func TestSquaredDistancesMatchTheirRoots(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	near := func(d2, d float64) bool { return math.Abs(d2-d*d) <= 1e-12*(1+d*d) }
	for i := 0; i < 5000; i++ {
		p, q := boundedPoint(rng), boundedPoint(rng)
		if !near(p.Dist2(q), p.Dist(q)) {
			t.Fatalf("Point.Dist2(%v, %v) = %g, Dist² = %g", p, q, p.Dist2(q), p.Dist(q)*p.Dist(q))
		}
		r := RectFromPoints(boundedPoint(rng), boundedPoint(rng))
		s := RectFromPoints(boundedPoint(rng), boundedPoint(rng))
		if !near(r.Dist2(s), r.Dist(s)) {
			t.Fatalf("Rect.Dist2(%v, %v) = %g, Dist² = %g", r, s, r.Dist2(s), r.Dist(s)*r.Dist(s))
		}
		a := Segment{boundedPoint(rng), boundedPoint(rng)}
		b := Segment{boundedPoint(rng), boundedPoint(rng)}
		if i%10 == 0 {
			a.B = a.A // a zero-length segment is its endpoint
		}
		if !near(a.Dist2ToPoint(p), a.DistToPoint(p)) {
			t.Fatalf("%v.Dist2ToPoint(%v) = %g, DistToPoint² = %g", a, p, a.Dist2ToPoint(p), a.DistToPoint(p)*a.DistToPoint(p))
		}
		d := a.DistToSegment(b)
		for _, eps := range []float64{0, d * 0.5, d * (1 - 1e-9), d * (1 + 1e-9), d + 1} {
			if got, want := a.WithinDist(b, eps*eps), d <= eps; got != want {
				t.Fatalf("%v.WithinDist(%v, %g²) = %v, DistToSegment = %g", a, b, eps, got, d)
			}
		}
	}
	if d2 := EmptyRect().Dist2(Rect{0, 0, 1, 1}); !math.IsInf(d2, 1) {
		t.Errorf("squared distance to the empty rectangle = %v, want +Inf", d2)
	}
}
