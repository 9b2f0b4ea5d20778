package approx

import (
	"math"

	"spatialjoin/internal/geom"
)

// Tri is a three-valued answer for approximation-level containment tests.
// Filters may only act on certain answers: Yes proves containment (hit for
// the inclusion join), No proves non-containment (false hit); Unknown
// defers to the exact geometry processor.
type Tri int

// Tri values.
const (
	Unknown Tri = iota
	Yes
	No
)

// shape is the geometric value behind one approximation kind of a set.
type shape struct {
	ring    geom.Ring // convex ring kinds (CH, 4-C, 5-C, RMBR outline)
	rect    *geom.Rect
	circle  *Circle
	ellipse *Ellipse
}

func (s *Set) shapeOf(k Kind) shape {
	switch k {
	case MBR:
		r := s.MBR
		return shape{rect: &r}
	case MER:
		return shape{rect: s.MERA}
	case MBC:
		return shape{circle: s.MBCA}
	case MEC:
		return shape{circle: s.MECA}
	case MBE:
		return shape{ellipse: s.MBEA}
	case RMBR:
		return shape{ring: s.RMBRA.Ring()}
	case CH:
		return shape{ring: s.CHA}
	case C4:
		return shape{ring: s.C4A}
	case C5:
		return shape{ring: s.C5A}
	}
	panic("approx: unknown kind " + k.String())
}

// ContainsApprox decides whether the approximation of kind ck of a
// contains the approximation of kind ek of b, at the approximation level.
// The answer is exact (Yes/No) for every combination of convex rings,
// rectangles and circles; combinations involving ellipses fall back to
// sufficient conditions and may return Unknown. Degenerate (absent)
// shapes yield Unknown.
func ContainsApprox(ck Kind, a *Set, ek Kind, b *Set) Tri {
	container := a.shapeOf(ck)
	containee := b.shapeOf(ek)
	switch {
	case containee.rect != nil:
		if containee.rect.IsEmpty() {
			return Unknown
		}
		c := containee.rect.Corners()
		return containsPoints(container, c[:])
	case containee.ring != nil:
		if len(containee.ring) < 3 {
			return Unknown
		}
		return containsPoints(container, containee.ring)
	case containee.circle != nil:
		if containee.circle.R <= 0 {
			return Unknown
		}
		return containsCircle(container, *containee.circle)
	case containee.ellipse != nil:
		return containsEllipse(container, *containee.ellipse)
	}
	return Unknown
}

// containsPoints decides containment of a finite convex-generator point
// set (ring vertices or rectangle corners): for convex containers, all
// generators inside ⇔ the hull is inside.
func containsPoints(container shape, pts []geom.Point) Tri {
	in := func(p geom.Point) Tri {
		switch {
		case container.rect != nil:
			return boolTri(container.rect.ContainsPoint(p))
		case container.ring != nil:
			if len(container.ring) < 3 {
				return Unknown
			}
			return boolTri(container.ring.ContainsPoint(p))
		case container.circle != nil:
			return boolTri(container.circle.ContainsPoint(p))
		case container.ellipse != nil:
			return boolTri(container.ellipse.ContainsPoint(p))
		}
		return Unknown
	}
	for _, p := range pts {
		switch in(p) {
		case No:
			return No
		case Unknown:
			return Unknown
		}
	}
	return Yes
}

// containsCircle decides whether the container holds a full disk.
func containsCircle(container shape, c Circle) Tri {
	switch {
	case container.rect != nil:
		r := *container.rect
		return boolTri(c.C.X-c.R >= r.MinX && c.C.X+c.R <= r.MaxX &&
			c.C.Y-c.R >= r.MinY && c.C.Y+c.R <= r.MaxY)
	case container.circle != nil:
		return boolTri(container.circle.C.Dist(c.C)+c.R <= container.circle.R+1e-12)
	case container.ring != nil:
		ring := container.ring
		if len(ring) < 3 {
			return Unknown
		}
		if !ring.ContainsPoint(c.C) {
			return No
		}
		// Convex container: the disk fits iff the center keeps distance R
		// to every edge.
		for i := range ring {
			if ring.Edge(i).DistToPoint(c.C) < c.R-1e-12 {
				return No
			}
		}
		return Yes
	case container.ellipse != nil:
		// Only the easy negative is certain: center outside ⇒ not contained.
		if !container.ellipse.ContainsPoint(c.C) {
			return No
		}
		return Unknown
	}
	return Unknown
}

// containsEllipse decides whether the container holds a full ellipse using
// the ellipse's exact bounding box (axis extents of the linear map) for
// rectangles, and a sufficient radius bound for circles.
func containsEllipse(container shape, e Ellipse) Tri {
	extX := math.Hypot(e.B00, e.B01)
	extY := math.Hypot(e.B10, e.B11)
	switch {
	case container.rect != nil:
		r := *container.rect
		return boolTri(e.C.X-extX >= r.MinX && e.C.X+extX <= r.MaxX &&
			e.C.Y-extY >= r.MinY && e.C.Y+extY <= r.MaxY)
	case container.circle != nil:
		// Sufficient: center distance plus the largest semi-axis bound.
		sigma := math.Hypot(extX, extY) // ≥ σmax(B)
		if container.circle.C.Dist(e.C)+sigma <= container.circle.R+1e-12 {
			return Yes
		}
		if !container.circle.ContainsPoint(e.C) {
			return No
		}
		return Unknown
	case container.ring != nil:
		if len(container.ring) < 3 {
			return Unknown
		}
		if !container.ring.ContainsPoint(e.C) {
			return No
		}
		// Sufficient: the ellipse's bounding box fits.
		bb := geom.Rect{MinX: e.C.X - extX, MinY: e.C.Y - extY, MaxX: e.C.X + extX, MaxY: e.C.Y + extY}
		c := bb.Corners()
		if containsPoints(container, c[:]) == Yes {
			return Yes
		}
		return Unknown
	case container.ellipse != nil:
		if !container.ellipse.ContainsPoint(e.C) {
			return No
		}
		return Unknown
	}
	return Unknown
}

func boolTri(b bool) Tri {
	if b {
		return Yes
	}
	return No
}

// ClassifyContains runs the geometric filter for the inclusion join
// "a contains b" (section 2.2). The reasoning mirrors the intersection
// filter with the set inclusions reversed:
//
//   - b ⊆ a implies prog(b) ⊆ b ⊆ a ⊆ cons(a); so if prog(b) ⊄ cons(a),
//     the pair is a false hit.
//   - cons(b) ⊆ prog(a) implies b ⊆ cons(b) ⊆ prog(a) ⊆ a; a hit.
func (f FilterConfig) ClassifyContains(a, b *Set) Class {
	if ContainsApprox(f.Conservative, a, f.Progressive, b) == No {
		return FalseHit
	}
	if ContainsApprox(f.Progressive, a, f.Conservative, b) == Yes {
		return Hit
	}
	return Candidate
}
