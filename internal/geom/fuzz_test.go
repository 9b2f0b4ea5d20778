package geom

import (
	"math"
	"testing"
)

func ok(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
			return false
		}
	}
	return true
}

func FuzzSegmentIntersects(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0)
	f.Add(0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0)
	f.Add(0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 1.0, 1.0)
	f.Add(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		if !ok(ax, ay, bx, by, cx, cy, dx, dy) {
			t.Skip()
		}
		s := Segment{A: Point{X: ax, Y: ay}, B: Point{X: bx, Y: by}}
		u := Segment{A: Point{X: cx, Y: cy}, B: Point{X: dx, Y: dy}}
		if s.Intersects(u) != u.Intersects(s) {
			t.Fatalf("Intersects not symmetric: %v %v", s, u)
		}
		got := s.Intersects(u)
		p, found := s.IntersectionPoint(u)
		if got != found {
			t.Fatalf("Intersects=%v, IntersectionPoint found=%v", got, found)
		}
		if found {
			scale := 1 + s.A.Dist(s.B) + u.A.Dist(u.B)
			if s.DistToPoint(p) > 1e-6*scale || u.DistToPoint(p) > 1e-6*scale {
				t.Fatalf("intersection point %v off the segments", p)
			}
		}
		// The segments' bounding boxes must overlap whenever they intersect.
		if got && !s.Bounds().Intersects(u.Bounds()) {
			t.Fatal("intersecting segments with disjoint bounds")
		}
	})
}

func FuzzOrientationAdaptive(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 1.0, 2.0, 2.0)
	f.Add(0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
	f.Add(1e-30, 0.0, 1.0, 1e30, -1.0, 2.0)
	f.Fuzz(func(t *testing.T, ox, oy, axx, ayy, bxx, byy float64) {
		if !ok(ox, oy, axx, ayy, bxx, byy) {
			t.Skip()
		}
		o := Point{X: ox, Y: oy}
		a := Point{X: axx, Y: ayy}
		b := Point{X: bxx, Y: byy}
		got := OrientationAdaptive(o, a, b)
		want := orientationRatReference(o, a, b)
		if got != want {
			t.Fatalf("adaptive %d, exact %d for %v %v %v", got, want, o, a, b)
		}
		if got != -OrientationAdaptive(o, b, a) {
			t.Fatal("adaptive orientation not antisymmetric")
		}
	})
}

func FuzzRectOps(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 2.0, 2.0)
	f.Fuzz(func(t *testing.T, ax, ay, aw, ah, bx, by, bw, bh float64) {
		if !ok(ax, ay, aw, ah, bx, by, bw, bh) {
			t.Skip()
		}
		a := Rect{MinX: ax, MinY: ay, MaxX: ax + math.Abs(aw), MaxY: ay + math.Abs(ah)}
		b := Rect{MinX: bx, MinY: by, MaxX: bx + math.Abs(bw), MaxY: by + math.Abs(bh)}
		u := a.Union(b)
		if !u.Contains(a) || !u.Contains(b) {
			t.Fatal("union must contain both operands")
		}
		i := a.Intersection(b)
		if !i.IsEmpty() {
			if !a.Contains(i) || !b.Contains(i) {
				t.Fatal("intersection must be contained in both operands")
			}
		}
		if a.Intersects(b) != b.Intersects(a) {
			t.Fatal("Intersects not symmetric")
		}
		if a.Intersects(b) != !a.Intersection(b).IsEmpty() {
			t.Fatal("Intersects inconsistent with Intersection")
		}
	})
}
