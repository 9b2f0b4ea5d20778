// Package decomp implements the object-decomposition techniques of
// section 4.2 and Figure 14: trapezoids (the paper's choice, after
// [AA 83]), triangles and convex polygons. Decomposing a complex polygon
// into simple components at insertion time replaces one expensive
// computational-geometry algorithm at query time by many executions of
// fast algorithms on simple components [KHS 91]; the components are
// organized in a main-memory TR*-tree (package trstar).
package decomp

import (
	"slices"

	"spatialjoin/internal/convex"
	"spatialjoin/internal/geom"
)

// Trapezoid is one component of the trapezoidal decomposition: a convex
// quadrilateral with two vertical sides (either of which may degenerate to
// a point, making the component a triangle). Vertices are stored
// counterclockwise.
type Trapezoid struct {
	// P holds the corners counterclockwise: bottom-left, bottom-right,
	// top-right, top-left. For triangles two corners coincide.
	P [4]geom.Point
}

// Bounds returns the minimum bounding rectangle of t. The paper picks
// trapezoids as components precisely because single trapezoids are
// accurately approximated by MBRs.
func (t Trapezoid) Bounds() geom.Rect {
	return geom.RectFromPoints(t.P[0], t.P[1], t.P[2], t.P[3])
}

// Area returns the area of t.
func (t Trapezoid) Area() float64 {
	return geom.Ring(t.P[:]).Area()
}

// Ring returns the corners as a counterclockwise ring.
func (t Trapezoid) Ring() geom.Ring { return geom.Ring(t.P[:]) }

// ContainsPoint reports whether p lies in the closed trapezoid.
func (t Trapezoid) ContainsPoint(p geom.Point) bool {
	n := 0
	for i := 0; i < 4; i++ {
		a := t.P[i]
		b := t.P[(i+1)%4]
		if a == b {
			continue
		}
		if geom.Cross(a, b, p) < -geom.Eps {
			return false
		}
		n++
	}
	return n >= 3
}

// Intersects reports whether two closed trapezoids share at least one
// point — the "trapezoid intersection test" of Table 6, the innermost
// operation of the TR*-tree join. The corner arrays are tested as they
// are: a triangle's coincident corners span a zero-length edge, whose
// zero normal separates nothing.
func (t Trapezoid) Intersects(u Trapezoid) bool {
	return convex.SATIntersects(t.P[:], u.P[:])
}

// WithinDist reports whether two closed trapezoids lie within Euclidean
// distance eps of each other (intersecting trapezoids have distance 0).
// Because the trapezoids of a decomposition tile the closed region, two
// decomposed objects are within eps exactly when some pair of their
// components is — the within-distance analogue of the trapezoid
// intersection test.
func (t Trapezoid) WithinDist(u Trapezoid, eps float64) bool {
	return convex.WithinDist(t.P[:], u.P[:], eps)
}

// dedup drops coincident corners: the triangle or quadrilateral t spans.
func (t Trapezoid) dedup() geom.Ring {
	out := make(geom.Ring, 0, 4)
	for i := 0; i < 4; i++ {
		if t.P[i] != t.P[(i+1)%4] {
			out = append(out, t.P[i])
		}
	}
	return out
}

// Trapezoidize decomposes a polygon (with holes) into trapezoids using a
// vertical slab sweep: between two consecutive distinct vertex x
// coordinates no edge starts or ends, so the slab's interior is a stack of
// trapezoids bounded by consecutive active edges (even–odd rule). The
// decomposition is exact: component areas sum to the polygon area and the
// union of components equals the closed region.
func Trapezoidize(p *geom.Polygon) []Trapezoid {
	var edges []geom.Segment
	edges = p.Edges(edges)

	// Distinct event x coordinates.
	xs := make([]float64, 0, len(edges))
	for _, e := range edges {
		xs = append(xs, e.A.X)
	}
	slices.Sort(xs)
	xs = dedupFloats(xs)
	if len(xs) < 2 {
		return nil
	}

	// Sort non-vertical edges by their smaller x so the sweep can add them
	// as slabs open.
	type swEdge struct {
		s          geom.Segment
		minX, maxX float64
	}
	sw := make([]swEdge, 0, len(edges))
	for _, e := range edges {
		minX := min(e.A.X, e.B.X)
		maxX := max(e.A.X, e.B.X)
		if maxX-minX < geom.Eps {
			continue // vertical edges never span a slab
		}
		sw = append(sw, swEdge{s: e, minX: minX, maxX: maxX})
	}
	slices.SortFunc(sw, func(a, b swEdge) int { return compareLess(a.minX, b.minX) })

	// Map polygons decompose into 1 to 2 trapezoids per edge.
	out := make([]Trapezoid, 0, 2*len(edges))
	active := make([]swEdge, 0, 16)
	next := 0
	type span struct {
		yl, yr float64
		e      swEdge
	}
	spans := make([]span, 0, 16)
	for i := 0; i+1 < len(xs); i++ {
		xl, xr := xs[i], xs[i+1]
		// Admit edges opening at or before xl.
		for next < len(sw) && sw[next].minX <= xl+geom.Eps {
			active = append(active, sw[next])
			next++
		}
		// Retire edges that ended.
		keep := active[:0]
		for _, e := range active {
			if e.maxX > xl+geom.Eps {
				keep = append(keep, e)
			}
		}
		active = keep

		spans = spans[:0]
		for _, e := range active {
			if e.minX <= xl+geom.Eps && e.maxX >= xr-geom.Eps {
				spans = append(spans, span{yl: e.s.YAt(xl), yr: e.s.YAt(xr), e: e})
			}
		}
		slices.SortFunc(spans, func(a, b span) int { return compareLess(a.yl+a.yr, b.yl+b.yr) })
		for k := 0; k+1 < len(spans); k += 2 {
			lo := spans[k]
			hi := spans[k+1]
			t := Trapezoid{P: [4]geom.Point{
				{X: xl, Y: lo.yl},
				{X: xr, Y: lo.yr},
				{X: xr, Y: hi.yr},
				{X: xl, Y: hi.yl},
			}}
			if t.Area() > geom.Eps {
				out = append(out, t)
			}
		}
	}
	return out
}

// compareLess is a three-way comparison that is negative exactly where
// a < b: slices.SortFunc consults only that sign and runs sort.Slice's
// pdqsort, so sorting by it orders ties exactly as sort.Slice with
// "a < b" did, and the sweep emits the same trapezoids in the same order.
func compareLess(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

func dedupFloats(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x-out[len(out)-1] > geom.Eps {
			out = append(out, x)
		}
	}
	return out
}
