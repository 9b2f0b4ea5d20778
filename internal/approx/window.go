package approx

import (
	"spatialjoin/internal/convex"
	"spatialjoin/internal/geom"
)

// intersectsRect reports whether the approximation of kind k intersects
// the rectilinear window w. It is exact for every kind, so the multi-step
// window query can use conservative kinds to prove misses and progressive
// kinds to prove hits against a window (the point-/window-query framework
// of [KBS 93, BHKS 93] that section 2.4 extends to joins).
func intersectsRect(k Kind, s *Set, w geom.Rect) bool {
	sh := s.shapeOf(k)
	switch {
	case sh.rect != nil:
		return sh.rect.Intersects(w)
	case sh.ring != nil:
		if len(sh.ring) < 3 {
			return false
		}
		c := w.Corners()
		return convex.SATIntersects(sh.ring, geom.Ring(c[:]))
	case sh.circle != nil:
		if sh.circle.R <= 0 && k == MEC {
			return false
		}
		return circleRect(*sh.circle, w)
	case sh.ellipse != nil:
		c := w.Corners()
		return convex.GJKIntersects(*sh.ellipse, convex.PolygonSupport(geom.Ring(c[:])))
	}
	return false
}

// circleRect is the exact disk–rectangle intersection test: the distance
// from the center to the closed rectangle is at most the radius.
func circleRect(c Circle, w geom.Rect) bool {
	dx := 0.0
	switch {
	case c.C.X < w.MinX:
		dx = w.MinX - c.C.X
	case c.C.X > w.MaxX:
		dx = c.C.X - w.MaxX
	}
	dy := 0.0
	switch {
	case c.C.Y < w.MinY:
		dy = w.MinY - c.C.Y
	case c.C.Y > w.MaxY:
		dy = c.C.Y - w.MaxY
	}
	return dx*dx+dy*dy <= c.R*c.R+1e-12
}

// ClassifyWindow runs the geometric filter for a window query: the window
// is exact, so a conservative miss proves a false hit and a progressive
// hit proves a hit.
func (f FilterConfig) ClassifyWindow(s *Set, w geom.Rect) Class {
	if f.Conservative != MBR && !intersectsRect(f.Conservative, s, w) {
		return FalseHit
	}
	if intersectsRect(f.Progressive, s, w) {
		return Hit
	}
	return Candidate
}
