package approx

import (
	"math"
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
)

// starPoly returns a random star-shaped polygon around (cx, cy) — the test
// stand-in for the paper's cartographic objects.
func starPoly(rng *rand.Rand, cx, cy, radius float64, n int) *geom.Polygon {
	pts := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		r := radius * (0.35 + 0.65*rng.Float64())
		pts[i] = geom.Point{X: cx + r*math.Cos(ang), Y: cy + r*math.Sin(ang)}
	}
	return geom.NewPolygon(pts)
}

func sq(cx, cy, half float64) []geom.Point {
	return []geom.Point{
		{X: cx - half, Y: cy - half}, {X: cx + half, Y: cy - half},
		{X: cx + half, Y: cy + half}, {X: cx - half, Y: cy + half},
	}
}

func TestKindStringsAndParams(t *testing.T) {
	wantParams := map[Kind]int{MBR: 4, RMBR: 5, C4: 8, C5: 10, MBC: 3, MBE: 5, MEC: 3, MER: 4}
	for k, want := range wantParams {
		if got := k.NumParams(0); got != want {
			t.Errorf("%v params = %d, want %d", k, got, want)
		}
	}
	if got := CH.NumParams(26); got != 52 {
		t.Errorf("CH params = %d, want 52", got)
	}
	for _, k := range []Kind{MBR, RMBR, CH, C4, C5, MBC, MBE} {
		if !k.Conservative() {
			t.Errorf("%v must be conservative", k)
		}
	}
	for _, k := range []Kind{MEC, MER} {
		if k.Conservative() {
			t.Errorf("%v must be progressive", k)
		}
	}
	if MBR.String() != "MBR" || C5.String() != "5-C" || MER.String() != "MER" {
		t.Error("kind names must match the paper's abbreviations")
	}
}

func TestMinBoundingCircleBasics(t *testing.T) {
	pts := []geom.Point{{X: -1, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 0.2}}
	c := minBoundingCircle(pts)
	if !almostEq(c.R, 1, 1e-9) || !almostEq(c.C.X, 0, 1e-9) || !almostEq(c.C.Y, 0, 1e-9) {
		t.Errorf("MBC = %+v, want center (0,0) radius 1", c)
	}
	if got := minBoundingCircle(nil); got.R != 0 {
		t.Error("empty input must give zero circle")
	}
	one := minBoundingCircle([]geom.Point{{X: 3, Y: 4}})
	if one.R != 0 || one.C != (geom.Point{X: 3, Y: 4}) {
		t.Errorf("single point MBC = %+v", one)
	}
}

// bruteMinCircle finds the minimum enclosing circle by trying all pairs
// and triples — O(n⁴), test-only ground truth.
func bruteMinCircle(pts []geom.Point) Circle {
	best := Circle{R: math.Inf(1)}
	contains := func(c Circle) bool {
		for _, p := range pts {
			if c.C.Dist(p) > c.R+1e-9 {
				return false
			}
		}
		return true
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if c := circleFrom2(pts[i], pts[j]); c.R < best.R && contains(c) {
				best = c
			}
			for k := j + 1; k < len(pts); k++ {
				if c := circleFrom3(pts[i], pts[j], pts[k]); c.R < best.R && contains(c) {
					best = c
				}
			}
		}
	}
	return best
}

func TestMinBoundingCirclePropertyMinimalAndConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(12)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		}
		c := minBoundingCircle(pts)
		for _, p := range pts {
			if c.C.Dist(p) > c.R+1e-9 {
				t.Fatalf("trial %d: MBC does not contain %v", trial, p)
			}
		}
		want := bruteMinCircle(pts)
		if c.R > want.R*(1+1e-6)+1e-9 {
			t.Fatalf("trial %d: MBC radius %v not minimal (brute force %v)", trial, c.R, want.R)
		}
	}
}

func TestMinBoundingEllipseConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		poly := starPoly(rng, rng.Float64()*5, rng.Float64()*5, 1+rng.Float64(), 5+rng.Intn(40))
		var verts []geom.Point
		verts = poly.Vertices(verts)
		e := minBoundingEllipse(verts)
		for _, p := range verts {
			if !e.ContainsPoint(p) {
				t.Fatalf("trial %d: MBE does not contain vertex %v", trial, p)
			}
		}
		// The MBE should not be worse than the bounding circle (a circle
		// is an ellipse, so the minimum ellipse area is at most πR²).
		mbc := minBoundingCircle(verts)
		if e.Area() > mbc.Area()*1.02 {
			t.Fatalf("trial %d: MBE area %v exceeds MBC area %v", trial, e.Area(), mbc.Area())
		}
	}
}

func TestMinBoundingEllipseElongated(t *testing.T) {
	// For an elongated point cloud the MBE must be much smaller than the MBC.
	var pts []geom.Point
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 60; i++ {
		pts = append(pts, geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 0.5})
	}
	e := minBoundingEllipse(pts)
	c := minBoundingCircle(pts)
	if e.Area() > c.Area()/3 {
		t.Errorf("elongated cloud: MBE area %v should be well below MBC area %v", e.Area(), c.Area())
	}
}

func TestMaxEnclosedCircleSquare(t *testing.T) {
	p := geom.NewPolygon(sq(0, 0, 1))
	c := maxEnclosedCircle(p, 1e-4)
	if !almostEq(c.C.X, 0, 0.01) || !almostEq(c.C.Y, 0, 0.01) {
		t.Errorf("MEC center = %v, want ~(0,0)", c.C)
	}
	if c.R < 0.99 || c.R > 1.0 {
		t.Errorf("MEC radius = %v, want ~1 (and ≤ 1)", c.R)
	}
}

func TestMaxEnclosedCircleWithHole(t *testing.T) {
	// Annulus: the MEC must avoid the hole.
	p := geom.NewPolygon(sq(0, 0, 2), sq(0, 0, 1))
	c := maxEnclosedCircle(p, 1e-3)
	// The optimum sits in a corner of the square annulus: the circle
	// touching the hole corner and both outer walls has radius
	// 2 − (2+√2)/(1+√2) ≈ 0.5858, beating the 0.5 band width.
	want := 2 - (2+math.Sqrt2)/(1+math.Sqrt2)
	if c.R > want+1e-3 {
		t.Errorf("annulus MEC radius = %v, want ≤ %v", c.R, want)
	}
	if c.R < want-0.02 {
		t.Errorf("annulus MEC radius = %v, want ≈ %v", c.R, want)
	}
	// Center must be inside the annulus, not in the hole.
	if !p.ContainsPoint(c.C) {
		t.Error("MEC center must lie inside the polygon")
	}
}

func TestMaxEnclosedCirclePropertyInside(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		poly := starPoly(rng, 0, 0, 1, 6+rng.Intn(20))
		c := maxEnclosedCircle(poly, 1e-3)
		if c.R <= 0 {
			t.Fatalf("trial %d: MEC radius %v must be positive for a star polygon", trial, c.R)
		}
		for i := 0; i < 32; i++ {
			a := 2 * math.Pi * float64(i) / 32
			pt := geom.Point{X: c.C.X + c.R*math.Cos(a), Y: c.C.Y + c.R*math.Sin(a)}
			if !poly.ContainsPoint(pt) {
				t.Fatalf("trial %d: MEC boundary point %v escapes the polygon", trial, pt)
			}
		}
	}
}

func TestMaxEnclosedRectSquare(t *testing.T) {
	p := geom.NewPolygon(sq(0, 0, 1))
	r := maxEnclosedRect(p)
	if !almostEq(r.Area(), 4, 1e-9) {
		t.Errorf("MER of a square = %v (area %v), want the square itself", r, r.Area())
	}
}

func TestMaxEnclosedRectLShape(t *testing.T) {
	// L-shape: the best vertex-aligned rectangle has area 2 (either arm).
	p := geom.NewPolygon([]geom.Point{
		{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 2}, {X: 0, Y: 2},
	})
	r := maxEnclosedRect(p)
	if !almostEq(r.Area(), 2, 1e-9) {
		t.Errorf("MER of L-shape area = %v, want 2 (rect %v)", r.Area(), r)
	}
}

func TestMaxEnclosedRectPropertyInside(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		poly := starPoly(rng, 0, 0, 1, 6+rng.Intn(25))
		r := maxEnclosedRect(poly)
		if r.IsEmpty() {
			t.Fatalf("trial %d: MER must exist for a star polygon", trial)
		}
		if r.Area() <= 0 {
			t.Fatalf("trial %d: MER area must be positive", trial)
		}
		// Sample the rectangle boundary and interior.
		for i := 0; i <= 8; i++ {
			for j := 0; j <= 8; j++ {
				pt := geom.Point{
					X: r.MinX + (r.MaxX-r.MinX)*float64(i)/8,
					Y: r.MinY + (r.MaxY-r.MinY)*float64(j)/8,
				}
				if !poly.ContainsPoint(pt) {
					t.Fatalf("trial %d: MER point %v escapes the polygon (rect %v)", trial, pt, r)
				}
			}
		}
	}
}

func TestComputeSetConservativeContainsVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		poly := starPoly(rng, rng.Float64()*3, rng.Float64()*3, 0.5+rng.Float64(), 8+rng.Intn(30))
		s := Compute(poly, AllOptions())
		var verts []geom.Point
		verts = poly.Vertices(verts)
		for _, v := range verts {
			if !s.MBR.ContainsPoint(v) {
				t.Fatalf("MBR misses vertex %v", v)
			}
			if !s.RMBRA.ContainsPoint(v) {
				t.Fatalf("RMBR misses vertex %v", v)
			}
			if !s.CHA.ContainsPoint(v) {
				t.Fatalf("CH misses vertex %v", v)
			}
			if !s.C4A.ContainsPoint(v) {
				t.Fatalf("4-C misses vertex %v", v)
			}
			if !s.C5A.ContainsPoint(v) {
				t.Fatalf("5-C misses vertex %v", v)
			}
			if !s.MBCA.ContainsPoint(v) {
				t.Fatalf("MBC misses vertex %v", v)
			}
			if !s.MBEA.ContainsPoint(v) {
				t.Fatalf("MBE misses vertex %v", v)
			}
		}
	}
}

func TestComputeSetAreaOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		poly := starPoly(rng, 0, 0, 1, 10+rng.Intn(40))
		s := Compute(poly, AllOptions())
		// CH is the tightest convex conservative approximation.
		if s.Area(CH) > s.Area(C5)+1e-9 || s.Area(C5) > s.Area(C4)+1e-9 {
			t.Fatalf("area ordering violated: CH %v, 5-C %v, 4-C %v",
				s.Area(CH), s.Area(C5), s.Area(C4))
		}
		if s.Area(RMBR) > s.Area(MBR)+1e-9 {
			t.Fatalf("RMBR area %v exceeds MBR area %v", s.Area(RMBR), s.Area(MBR))
		}
		if s.Area(CH)+1e-9 < s.ObjArea {
			t.Fatalf("hull area below object area")
		}
		// Progressive approximations are enclosed.
		if s.Area(MEC) > s.ObjArea+1e-9 || s.Area(MER) > s.ObjArea+1e-9 {
			t.Fatalf("progressive approximation larger than the object")
		}
		// Quality metrics are well-formed.
		if s.NormalizedFalseArea(MBR) < -1e-9 {
			t.Fatalf("negative normalized false area")
		}
		for _, k := range []Kind{MEC, MER} {
			q := s.ProgressiveQuality(k)
			if q < 0 || q > 1+1e-9 {
				t.Fatalf("%v quality %v out of [0,1]", k, q)
			}
		}
		// Figure 4 measure: tighter approximations have smaller
		// MBR-based false area than the MBR itself.
		if s.MBRBasedFalseArea(CH) > s.NormalizedFalseArea(MBR)+1e-9 {
			t.Fatalf("CH MBR-based false area exceeds the MBR false area")
		}
	}
}

func TestFilterSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	polys := make([]*geom.Polygon, 40)
	sets := make([]*Set, len(polys))
	for i := range polys {
		polys[i] = starPoly(rng, rng.Float64()*4, rng.Float64()*4, 0.3+0.7*rng.Float64(), 6+rng.Intn(20))
		sets[i] = Compute(polys[i], AllOptions())
	}
	consChecked, progChecked, faChecked := 0, 0, 0
	for i := range polys {
		for j := i + 1; j < len(polys); j++ {
			truth := polys[i].Intersects(polys[j])
			for _, k := range ConservativeKinds {
				if !ConservativeIntersects(k, sets[i], sets[j]) {
					consChecked++
					if truth {
						t.Fatalf("UNSOUND: %v says disjoint but objects %d,%d intersect", k, i, j)
					}
				}
			}
			for _, k := range ProgressiveKinds {
				if ProgressiveIntersects(k, sets[i], sets[j]) {
					progChecked++
					if !truth {
						t.Fatalf("UNSOUND: %v says hit but objects %d,%d are disjoint", k, i, j)
					}
				}
			}
			for _, k := range []Kind{MBR, RMBR, C4, C5, CH} {
				if FalseAreaHit(k, sets[i], sets[j]) {
					faChecked++
					if !truth {
						t.Fatalf("UNSOUND: false-area test with %v fired on disjoint objects %d,%d", k, i, j)
					}
				}
			}
		}
	}
	if consChecked == 0 || progChecked == 0 {
		t.Fatalf("test exercised no decisive filter outcomes (cons %d, prog %d, fa %d)",
			consChecked, progChecked, faChecked)
	}
}

func TestClassify(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	f := RecommendedFilter()
	hits, falseHits, cands := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		a := starPoly(rng, 0, 0, 1, 8+rng.Intn(10))
		b := starPoly(rng, rng.Float64()*3-1.5, rng.Float64()*3-1.5, 1, 8+rng.Intn(10))
		sa := Compute(a, f.Kinds())
		sb := Compute(b, f.Kinds())
		truth := a.Intersects(b)
		switch f.Classify(sa, sb) {
		case Hit:
			hits++
			if !truth {
				t.Fatal("Classify said Hit on disjoint objects")
			}
		case FalseHit:
			falseHits++
			if truth {
				t.Fatal("Classify said FalseHit on intersecting objects")
			}
		default:
			cands++
		}
	}
	if hits == 0 || falseHits == 0 {
		t.Errorf("filter never decided anything: hits=%d falseHits=%d cands=%d", hits, falseHits, cands)
	}
}

func TestClassString(t *testing.T) {
	if Hit.String() != "hit" || FalseHit.String() != "false hit" || Candidate.String() != "candidate" {
		t.Error("Class names wrong")
	}
}

func TestApproxByteSize(t *testing.T) {
	// Section 5: MBR 16 B + 32 B info = 48 B baseline.
	if got := ApproxByteSize(); got != 48 {
		t.Errorf("baseline entry = %d bytes, want 48", got)
	}
	// + MER 16 B + 5-C 40 B = 104 B.
	if got := ApproxByteSize(MER, C5); got != 104 {
		t.Errorf("MER+5-C entry = %d bytes, want 104", got)
	}
	if got := ApproxByteSize(RMBR); got != 68 {
		t.Errorf("RMBR entry = %d bytes, want 68", got)
	}
}

func TestCircleOutline(t *testing.T) {
	c := Circle{C: geom.Point{X: 1, Y: 2}, R: 3}
	ring := c.Outline(96)
	if !ring.IsCCW() {
		t.Error("outline must be CCW")
	}
	if !almostEq(ring.Area(), c.Area(), c.Area()*0.01) {
		t.Errorf("outline area %v vs circle area %v", ring.Area(), c.Area())
	}
}

func TestEllipseOutline(t *testing.T) {
	e := Ellipse{C: geom.Point{X: 0, Y: 0}, B00: 2, B11: 1}
	ring := ellipseOutline(e, 96)
	if !ring.IsCCW() {
		t.Error("ellipse outline must be CCW")
	}
	if !almostEq(ring.Area(), e.Area(), e.Area()*0.01) {
		t.Errorf("outline area %v vs ellipse area %v", ring.Area(), e.Area())
	}
	// Mirrored map (negative determinant) must still give a CCW ring.
	m := Ellipse{C: geom.Point{X: 0, Y: 0}, B00: -2, B11: 1}
	if !ellipseOutline(m, 64).IsCCW() {
		t.Error("mirrored ellipse outline must be normalized to CCW")
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
