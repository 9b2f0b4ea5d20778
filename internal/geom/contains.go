package geom

// ContainsPolygon reports whether the closed region of p contains the
// closed region of q — the inclusion predicate of section 2.2 ("for other
// predicates, e.g. inclusion, a similar approach can be used").
//
// The test mirrors the intersection ground truth: q ⊆ p iff
//
//  1. MBR(q) ⊆ MBR(p) (pretest),
//  2. no edge of q properly crosses an edge of p (touching allowed:
//     closed-region semantics),
//  3. every vertex of q lies in p, and
//  4. no hole of p lies strictly inside q (otherwise part of q's region
//     sits inside the hole, outside p).
func (p *Polygon) ContainsPolygon(q *Polygon) bool {
	if !p.Bounds().Contains(q.Bounds()) {
		return false
	}
	for eq := range q.edges {
		qb := eq.Bounds()
		for ep := range p.edges {
			if qb.Intersects(ep.Bounds()) && properCross(eq, ep) {
				return false
			}
		}
	}
	var qv []Point
	qv = q.Vertices(qv)
	for _, v := range qv {
		if !p.ContainsPoint(v) {
			return false
		}
	}
	// A hole of p strictly inside q would carve the containment.
	for _, h := range p.Holes {
		inside := true
		for _, v := range h {
			if !q.ContainsPoint(v) {
				inside = false
				break
			}
		}
		if inside && len(h) > 0 {
			// The hole rim lies in q; if its interior is not part of q's
			// own holes, q covers the hole and is not contained. A hole of
			// q coinciding with the hole of p keeps containment; testing
			// the hole centroid against q decides.
			c := h.Centroid()
			if q.ContainsPoint(c) && !p.ContainsPoint(c) {
				return false
			}
		}
	}
	return true
}

// properCross reports whether two segments cross at a point interior to
// both (touching endpoints and collinear overlaps do not count — those are
// permitted for closed-region containment).
func properCross(a, b Segment) bool {
	o1 := Orientation(a.A, a.B, b.A)
	o2 := Orientation(a.A, a.B, b.B)
	o3 := Orientation(b.A, b.B, a.A)
	o4 := Orientation(b.A, b.B, a.B)
	return o1*o2 < 0 && o3*o4 < 0
}
