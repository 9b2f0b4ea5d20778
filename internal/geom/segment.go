package geom

import "math"

// Segment is a closed line segment between two endpoints. Segments are the
// unit of work of the exact geometry processor: both the quadratic edge
// test and the plane-sweep algorithm of section 4 reduce polygon
// intersection to segment intersection tests.
type Segment struct {
	A, B Point
}

// Bounds returns the minimum bounding rectangle of s.
func (s Segment) Bounds() Rect {
	return Rect{
		MinX: min(s.A.X, s.B.X),
		MinY: min(s.A.Y, s.B.Y),
		MaxX: max(s.A.X, s.B.X),
		MaxY: max(s.A.Y, s.B.Y),
	}
}

// onSegment reports whether p, already known to be collinear with s, lies
// within the bounding box of s.
func (s Segment) onSegment(p Point) bool {
	return p.X >= min(s.A.X, s.B.X)-Eps && p.X <= max(s.A.X, s.B.X)+Eps &&
		p.Y >= min(s.A.Y, s.B.Y)-Eps && p.Y <= max(s.A.Y, s.B.Y)+Eps
}

// ContainsPoint reports whether p lies on the closed segment s.
func (s Segment) ContainsPoint(p Point) bool {
	if Orientation(s.A, s.B, p) != 0 {
		return false
	}
	return s.onSegment(p)
}

// Intersects reports whether the closed segments s and t share at least one
// point. It is the classic four-orientation test extended with collinear
// overlap handling, so touching endpoints and collinear overlaps count as
// intersections (closed-set semantics).
func (s Segment) Intersects(t Segment) bool {
	o1 := Orientation(s.A, s.B, t.A)
	o2 := Orientation(s.A, s.B, t.B)
	o3 := Orientation(t.A, t.B, s.A)
	o4 := Orientation(t.A, t.B, s.B)

	if o1 != o2 && o3 != o4 {
		return true
	}
	// Collinear configurations: check whether an endpoint of one segment
	// lies on the other.
	if o1 == 0 && s.onSegment(t.A) {
		return true
	}
	if o2 == 0 && s.onSegment(t.B) {
		return true
	}
	if o3 == 0 && t.onSegment(s.A) {
		return true
	}
	if o4 == 0 && t.onSegment(s.B) {
		return true
	}
	return false
}

// IntersectsRect reports whether the closed segment s shares at least one
// point with the closed rectangle r. This is the "edge-rectangle
// intersection test" of Table 6, used by the plane-sweep algorithm to
// restrict the search space to the intersection rectangle of the two MBRs.
func (s Segment) IntersectsRect(r Rect) bool {
	if r.IsEmpty() {
		return false
	}
	if !s.Bounds().Intersects(r) {
		return false
	}
	if r.ContainsPoint(s.A) || r.ContainsPoint(s.B) {
		return true
	}
	c := r.Corners()
	for i := 0; i < 4; i++ {
		if s.Intersects(Segment{c[i], c[(i+1)%4]}) {
			return true
		}
	}
	return false
}

// YAt returns the y coordinate of the (extended) line through s at the
// given x. For vertical segments it returns the smaller endpoint y; the
// plane-sweep status uses YAt only for segments that span the sweep line,
// which excludes truly vertical edges at their own x except at events.
func (s Segment) YAt(x float64) float64 {
	dx := s.B.X - s.A.X
	if math.Abs(dx) < Eps {
		return min(s.A.Y, s.B.Y)
	}
	t := (x - s.A.X) / dx
	return s.A.Y + t*(s.B.Y-s.A.Y)
}

// DistToSegment returns the Euclidean distance between the closed
// segments s and t: 0 when they intersect, otherwise the smallest
// endpoint-to-segment distance (the minimum over two disjoint segments is
// always realized at an endpoint of one of them).
func (s Segment) DistToSegment(t Segment) float64 {
	if s.Intersects(t) {
		return 0
	}
	d := s.DistToPoint(t.A)
	if dd := s.DistToPoint(t.B); dd < d {
		d = dd
	}
	if dd := t.DistToPoint(s.A); dd < d {
		d = dd
	}
	if dd := t.DistToPoint(s.B); dd < d {
		d = dd
	}
	return d
}

// DistToPoint returns the Euclidean distance from p to the closed segment s.
func (s Segment) DistToPoint(p Point) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 < Eps {
		return p.Dist(s.A)
	}
	t := p.Sub(s.A).Dot(d) / l2
	t = max(0, min(1, t))
	proj := s.A.Add(d.Scale(t))
	return p.Dist(proj)
}

// Dist2ToPoint returns the squared Euclidean distance from p to the closed
// segment s. It needs no square root, and a division only when the foot of
// the perpendicular falls strictly inside s; a zero-length segment is the
// point s.A.
func (s Segment) Dist2ToPoint(p Point) float64 {
	d := s.B.Sub(s.A)
	w := p.Sub(s.A)
	t := w.Dot(d)
	if t <= 0 {
		return w.Dot(w)
	}
	l2 := d.Dot(d)
	if t >= l2 {
		return p.Dist2(s.B)
	}
	c := w.CrossVec(d)
	return c * c / l2
}

// WithinDist reports whether the closed segments s and t lie within
// Euclidean distance √eps2 of each other — DistToSegment(t) ≤ ε decided on
// squared distances: an endpoint of one within √eps2 of the other, or the
// segments crossing.
func (s Segment) WithinDist(t Segment, eps2 float64) bool {
	return s.Dist2ToPoint(t.A) <= eps2 || s.Dist2ToPoint(t.B) <= eps2 ||
		t.Dist2ToPoint(s.A) <= eps2 || t.Dist2ToPoint(s.B) <= eps2 ||
		s.Intersects(t)
}
