package decomp

import (
	"spatialjoin/internal/geom"
)

// Triangle is one component of the triangle decomposition (Figure 14).
type Triangle struct {
	A, B, C geom.Point
}

// Bounds returns the minimum bounding rectangle of t.
func (t Triangle) Bounds() geom.Rect { return geom.RectFromPoints(t.A, t.B, t.C) }

// Area returns the area of t.
func (t Triangle) Area() float64 {
	v := geom.Cross(t.A, t.B, t.C) / 2
	if v < 0 {
		return -v
	}
	return v
}

// Ring returns the corners as a counterclockwise ring.
func (t Triangle) Ring() geom.Ring {
	if geom.Cross(t.A, t.B, t.C) >= 0 {
		return geom.Ring{t.A, t.B, t.C}
	}
	return geom.Ring{t.A, t.C, t.B}
}

// triangulate decomposes a polygon into triangles. Hole-free polygons use
// ear clipping [PS 85]; polygons with holes are first trapezoidized and
// each trapezoid is split along a diagonal, which is also an exact
// triangulation (with roughly twice as many components as an optimal one —
// the Figure 14 comparison reports component counts, so the difference is
// visible rather than hidden).
func triangulate(p *geom.Polygon) []Triangle {
	if len(p.Holes) == 0 {
		if tris, ok := earClip(p.Outer); ok {
			return tris
		}
	}
	traps := Trapezoidize(p)
	out := make([]Triangle, 0, 2*len(traps))
	for _, t := range traps {
		ring := t.dedup()
		switch len(ring) {
		case 3:
			out = append(out, Triangle{A: ring[0], B: ring[1], C: ring[2]})
		case 4:
			out = append(out,
				Triangle{A: ring[0], B: ring[1], C: ring[2]},
				Triangle{A: ring[0], B: ring[2], C: ring[3]})
		}
	}
	return out
}

// earClip triangulates a simple counterclockwise ring in O(n²). ok is
// false when no ear is found (numerically degenerate input); callers fall
// back to the trapezoid-based triangulation.
func earClip(ring geom.Ring) ([]Triangle, bool) {
	n := len(ring)
	if n < 3 {
		return nil, false
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var out []Triangle
	guard := 0
	for len(idx) > 3 {
		if guard++; guard > 2*n*n {
			return nil, false
		}
		clipped := false
		m := len(idx)
		for i := 0; i < m; i++ {
			ia := idx[(i-1+m)%m]
			ib := idx[i]
			ic := idx[(i+1)%m]
			a, b, c := ring[ia], ring[ib], ring[ic]
			if geom.Cross(a, b, c) <= geom.Eps {
				continue // reflex or degenerate corner: not an ear
			}
			// No other remaining vertex may lie inside the candidate ear.
			ear := Triangle{A: a, B: b, C: c}
			ok := true
			for _, j := range idx {
				if j == ia || j == ib || j == ic {
					continue
				}
				if pointInTriangle(ring[j], a, b, c) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			out = append(out, ear)
			idx = append(idx[:i], idx[i+1:]...)
			clipped = true
			break
		}
		if !clipped {
			return nil, false
		}
	}
	out = append(out, Triangle{A: ring[idx[0]], B: ring[idx[1]], C: ring[idx[2]]})
	return out, true
}

// pointInTriangle reports whether p lies strictly inside or on the
// boundary of the CCW triangle (a, b, c).
func pointInTriangle(p, a, b, c geom.Point) bool {
	return geom.Cross(a, b, p) >= -geom.Eps &&
		geom.Cross(b, c, p) >= -geom.Eps &&
		geom.Cross(c, a, p) >= -geom.Eps
}
