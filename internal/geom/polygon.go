package geom

import "math"

// Polygon is a polygonal area in vector representation: one outer ring and
// zero or more hole rings cut out of it (section 2.1 of the paper — e.g. a
// forest with lakes). The outer ring is counterclockwise and holes are
// clockwise; NewPolygon normalizes orientations.
type Polygon struct {
	Outer Ring
	Holes []Ring
}

// NewPolygon builds a polygon from an outer boundary and optional holes,
// normalizing ring orientations. The caller is responsible for supplying
// simple, properly nested rings; ValidateSimple can check that for test
// and generator data.
func NewPolygon(outer []Point, holes ...[]Point) *Polygon {
	p := &Polygon{Outer: NewRing(outer)}
	for _, h := range holes {
		p.Holes = append(p.Holes, NewRing(h).Reversed())
	}
	return p
}

// Clone returns a deep copy of p.
func (p *Polygon) Clone() *Polygon {
	out := &Polygon{Outer: p.Outer.Clone()}
	for _, h := range p.Holes {
		out.Holes = append(out.Holes, h.Clone())
	}
	return out
}

// NumVertices returns the total number of vertices over all rings — the
// object complexity measure m used throughout the paper.
func (p *Polygon) NumVertices() int {
	n := len(p.Outer)
	for _, h := range p.Holes {
		n += len(h)
	}
	return n
}

// NumEdges returns the total number of edges over all rings, which equals
// NumVertices for closed rings.
func (p *Polygon) NumEdges() int { return p.NumVertices() }

// Bounds returns the minimum bounding rectangle (MBR) of p, the geometric
// key of step 1.
func (p *Polygon) Bounds() Rect { return p.Outer.Bounds() }

// Area returns the area of the polygonal region: outer area minus hole
// areas.
func (p *Polygon) Area() float64 {
	a := p.Outer.Area()
	for _, h := range p.Holes {
		a -= h.Area()
	}
	return a
}

// Edges appends all edges of p (outer ring and holes) to dst and returns
// the extended slice. Passing a reused buffer avoids per-pair allocations
// in the exact geometry processor.
func (p *Polygon) Edges(dst []Segment) []Segment {
	for e := range p.edges {
		dst = append(dst, e)
	}
	return dst
}

// edges yields all edges of p, outer ring first, without materialising
// them: the distance and intersection kernels range over it.
func (p *Polygon) edges(yield func(Segment) bool) {
	for i := range p.Outer {
		if !yield(p.Outer.Edge(i)) {
			return
		}
	}
	for _, h := range p.Holes {
		for i := range h {
			if !yield(h.Edge(i)) {
				return
			}
		}
	}
}

// Vertices appends all vertices of p to dst and returns the extended slice.
func (p *Polygon) Vertices(dst []Point) []Point {
	dst = append(dst, p.Outer...)
	for _, h := range p.Holes {
		dst = append(dst, h...)
	}
	return dst
}

// ContainsPoint reports whether q lies in the closed polygonal region:
// inside (or on) the outer ring and not strictly inside any hole.
func (p *Polygon) ContainsPoint(q Point) bool {
	if !p.Outer.ContainsPoint(q) {
		return false
	}
	for _, h := range p.Holes {
		if h.OnBoundary(q) {
			return true // on a hole rim is still in the closed region
		}
		if h.containsInterior(q) {
			return false
		}
	}
	return true
}

// OnBoundary reports whether q lies on any ring of p.
func (p *Polygon) OnBoundary(q Point) bool {
	if p.Outer.OnBoundary(q) {
		return true
	}
	for _, h := range p.Holes {
		if h.OnBoundary(q) {
			return true
		}
	}
	return false
}

// anyVertex returns a vertex of p; every polygon has at least three.
func (p *Polygon) anyVertex() Point { return p.Outer[0] }

// Intersects reports whether the closed regions of p and q share at least
// one point. It is the brute-force ground truth of the repository
// (quadratic edge test plus the containment fallback of section 4) against
// which the plane-sweep and TR*-tree engines, all approximation filters
// and the complete pipeline are validated.
func (p *Polygon) Intersects(q *Polygon) bool {
	if !p.Bounds().Intersects(q.Bounds()) {
		return false
	}
	for a := range p.edges {
		ab := a.Bounds()
		for b := range q.edges {
			if ab.Intersects(b.Bounds()) && a.Intersects(b) {
				return true
			}
		}
	}
	// No boundary crossing: the regions intersect only via containment.
	// MBR pretest as in section 4: containment of the region implies
	// containment of the MBR.
	if p.Bounds().Contains(q.Bounds()) && p.ContainsPoint(q.anyVertex()) {
		return true
	}
	if q.Bounds().Contains(p.Bounds()) && q.ContainsPoint(p.anyVertex()) {
		return true
	}
	return false
}

// Translate returns a copy of p shifted by (dx, dy).
func (p *Polygon) Translate(dx, dy float64) *Polygon {
	out := &Polygon{Outer: p.Outer.Translate(dx, dy)}
	for _, h := range p.Holes {
		out.Holes = append(out.Holes, h.Translate(dx, dy))
	}
	return out
}

// Transform returns a copy of p with f applied to every vertex. The caller
// must supply an orientation-preserving map (rotation, translation,
// positive scaling) so ring orientations stay valid.
func (p *Polygon) Transform(f func(Point) Point) *Polygon {
	out := &Polygon{Outer: p.Outer.Transform(f)}
	for _, h := range p.Holes {
		out.Holes = append(out.Holes, h.Transform(f))
	}
	return out
}

// DistToPoint returns the Euclidean distance from q to the closed
// polygonal region: 0 when q lies in the region, otherwise the distance to
// the nearest boundary point.
func (p *Polygon) DistToPoint(q Point) float64 {
	if p.Bounds().ContainsPoint(q) && p.ContainsPoint(q) {
		return 0
	}
	d := math.Inf(1)
	for e := range p.edges {
		if dd := e.DistToPoint(q); dd < d {
			d = dd
		}
	}
	return d
}

// DistToPolygon returns the Euclidean distance between the closed
// polygonal regions of p and q: 0 when they intersect, otherwise the
// smallest distance between their boundaries. Like Intersects it is the
// brute-force ground truth — the oracle of the within-distance join —
// against which the engine-specific distance tests are validated.
func (p *Polygon) DistToPolygon(q *Polygon) float64 {
	if p.Intersects(q) {
		return 0
	}
	// Disjoint closed regions: the infimum distance is attained between
	// boundary points (hole rings included — one region may lie inside a
	// hole of the other).
	d := math.Inf(1)
	for a := range p.edges {
		for b := range q.edges {
			if dd := a.DistToSegment(b); dd < d {
				d = dd
			}
		}
	}
	return d
}

// DistToRect returns the Euclidean distance between the closed polygonal
// region and the closed rectangle (degenerate rectangles — segments and
// points — included): 0 when they share a point, otherwise the smallest
// boundary distance. It is the exact kernel of the ε-range query.
//
// The result is the minimum of Segment.DistToSegment over every edge and
// every side of r, bit for bit; an edge is skipped only when its bounding
// box proves that none of its four terms can be below the running minimum.
func (p *Polygon) DistToRect(r Rect) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	// Containment either way means intersection (holes cannot separate a
	// rectangle that contains the full outer ring, and a rectangle corner
	// inside the region is decided by ContainsPoint).
	b := p.Bounds()
	if r.Contains(b) {
		return 0
	}
	c := r.Corners()
	if b.ContainsPoint(c[0]) && p.ContainsPoint(c[0]) {
		return 0
	}
	sides := 4
	if c[0] == c[2] {
		sides = 1 // a point: its four sides are one zero-length segment
	}
	w, h := r.MaxX-r.MinX, r.MaxY-r.MinY
	// slack covers what separates a computed segment distance from the
	// true one: coordinate rounding, and the Eps box of onSegment.
	slack := max(1e-9*max(-b.MinX, b.MaxX, -b.MinY, b.MaxY, -r.MinX, r.MaxX, -r.MinY, r.MaxY), 4*Eps)
	d := math.Inf(1)
	for e := range p.edges {
		eb := Rect{min(e.A.X, e.B.X), min(e.A.Y, e.B.Y), max(e.A.X, e.B.X), max(e.A.Y, e.B.Y)}
		if far := d + slack; eb.Dist2(r) > far*far &&
			offLine(w, eb.MinY, eb.MaxY, r.MinY) && offLine(w, eb.MinY, eb.MaxY, r.MaxY) &&
			offLine(h, eb.MinX, eb.MaxX, r.MinX) && offLine(h, eb.MinX, eb.MaxX, r.MaxX) {
			continue
		}
		for i := 0; i < sides; i++ {
			if dd := e.DistToSegment(Segment{A: c[i], B: c[(i+1)%4]}); dd < d {
				d = dd
			}
		}
	}
	return d
}

// offLine reports whether an edge spanning [lo, hi] across a rectangle side
// of length l at coordinate c lies on one side of it for Segment.Intersects,
// whose Orientation there is the sign of ±l·(v−c) against Eps. A far edge
// running along the side's line within that tolerance counts as crossing
// it — distance 0 — and must not be skipped; a zero-length side crosses
// nothing.
func offLine(l, lo, hi, c float64) bool {
	return l == 0 || l*(lo-c) > Eps || l*(hi-c) < -Eps
}

// ValidateSimple checks structural invariants: every ring is simple
// (non-self-intersecting), the outer ring is counterclockwise, holes are
// clockwise and lie strictly inside the outer ring (no hole edge meets an
// outer edge). It is quadratic and meant for
// tests and the data generator.
func (p *Polygon) ValidateSimple() error {
	if len(p.Outer) < 3 {
		return errValidation("outer ring has fewer than 3 vertices")
	}
	if !p.Outer.IsCCW() {
		return errValidation("outer ring is not counterclockwise")
	}
	if p.Outer.SelfIntersects() {
		return errValidation("outer ring self-intersects")
	}
	for _, h := range p.Holes {
		if len(h) < 3 {
			return errValidation("hole has fewer than 3 vertices")
		}
		if h.IsCCW() {
			return errValidation("hole ring is not clockwise")
		}
		if h.SelfIntersects() {
			return errValidation("hole ring self-intersects")
		}
		for _, v := range h {
			if !p.Outer.ContainsPoint(v) {
				return errValidation("hole vertex outside outer ring")
			}
		}
		// Vertices inside are not enough: an outer bay can reach in
		// between two hole vertices and cut the hole's edge.
		for i := range h {
			e := h.Edge(i)
			for j := range p.Outer {
				if e.Intersects(p.Outer.Edge(j)) {
					return errValidation("hole edge meets outer ring")
				}
			}
		}
	}
	return nil
}

type errValidation string

func (e errValidation) Error() string { return "geom: invalid polygon: " + string(e) }
