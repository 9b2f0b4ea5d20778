// Package convex provides the convex-geometry primitives behind the
// conservative approximations of section 3: convex hull construction,
// minimum-area enclosing rectangles (rotating calipers), minimum bounding
// m-corners (greedy minimal-area-addition edge removal after Dori and
// Ben-Bassat), convex–convex clipping for intersection areas, and two
// intersection tests for convex shapes — the separating-axis test for
// polygons and GJK for arbitrary convex support functions (circles,
// ellipses, polygons).
package convex

import (
	"math"
	"sort"
	"sync"

	"spatialjoin/internal/geom"
)

// Hull returns the convex hull of pts as a counterclockwise ring without
// collinear vertices, using Andrew's monotone-chain scan in O(n log n) —
// the Graham-scan family the paper cites [PS 85]. Degenerate inputs
// (fewer than three non-collinear points) yield a ring with fewer than
// three vertices.
func Hull(pts []geom.Point) geom.Ring {
	n := len(pts)
	if n == 0 {
		return nil
	}
	sorted := make([]geom.Point, n)
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y < sorted[j].Y
	})
	// Deduplicate.
	uniq := sorted[:1]
	for _, p := range sorted[1:] {
		last := uniq[len(uniq)-1]
		if p.X != last.X || p.Y != last.Y {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) < 3 {
		return geom.Ring(uniq)
	}
	hull := make([]geom.Point, 0, 2*len(uniq))
	// Lower hull.
	for _, p := range uniq {
		for len(hull) >= 2 && geom.Cross(hull[len(hull)-2], hull[len(hull)-1], p) <= geom.Eps {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := len(uniq) - 2; i >= 0; i-- {
		p := uniq[i]
		for len(hull) >= lower && geom.Cross(hull[len(hull)-2], hull[len(hull)-1], p) <= geom.Eps {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return geom.Ring(hull[:len(hull)-1])
}

// OrientedRect is a rectangle with arbitrary orientation: the rotated
// minimum bounding rectangle (RMBR) of section 3.2. It is described by the
// paper's five parameters (center, two extents, angle); the corner points
// are cached for intersection tests.
type OrientedRect struct {
	Center  geom.Point
	W, H    float64 // extents along the rotated x and y axes
	Angle   float64 // rotation of the rectangle's x axis, radians in [0, π)
	Corners [4]geom.Point
}

// Area returns the area of the oriented rectangle.
func (o OrientedRect) Area() float64 { return o.W * o.H }

// Ring returns the corner points as a counterclockwise ring.
func (o OrientedRect) Ring() geom.Ring { return geom.Ring(o.Corners[:]) }

// ContainsPoint reports whether p lies in the closed oriented rectangle.
func (o OrientedRect) ContainsPoint(p geom.Point) bool {
	q := p.Sub(o.Center).Rotate(-o.Angle)
	return math.Abs(q.X) <= o.W/2+1e-9 && math.Abs(q.Y) <= o.H/2+1e-9
}

// MinAreaRect returns the minimum-area enclosing rectangle of a convex
// ring using rotating calipers: the optimum has one side collinear with a
// hull edge, so one pass over the hull edges suffices. The paper quotes a
// simple O(n²) algorithm; calipers compute the same rectangle faster.
func MinAreaRect(hull geom.Ring) OrientedRect {
	n := len(hull)
	if n == 0 {
		return OrientedRect{}
	}
	if n == 1 {
		p := hull[0]
		return OrientedRect{Center: p, Corners: [4]geom.Point{p, p, p, p}}
	}
	best := OrientedRect{W: math.Inf(1), H: math.Inf(1)}
	bestArea := math.Inf(1)
	for i := 0; i < n; i++ {
		a := hull[i]
		b := hull[(i+1)%n]
		d := b.Sub(a)
		L := d.Norm()
		if L < geom.Eps {
			continue
		}
		ux := geom.Point{X: d.X / L, Y: d.Y / L}
		uy := geom.Point{X: -ux.Y, Y: ux.X}
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for _, p := range hull {
			v := p.Sub(a)
			x := v.Dot(ux)
			y := v.Dot(uy)
			minX = math.Min(minX, x)
			maxX = math.Max(maxX, x)
			minY = math.Min(minY, y)
			maxY = math.Max(maxY, y)
		}
		w := maxX - minX
		h := maxY - minY
		area := w * h
		if area < bestArea {
			bestArea = area
			cx := (minX + maxX) / 2
			cy := (minY + maxY) / 2
			center := a.Add(ux.Scale(cx)).Add(uy.Scale(cy))
			angle := math.Atan2(ux.Y, ux.X)
			if angle < 0 {
				angle += math.Pi
			}
			var corners [4]geom.Point
			signs := [4][2]float64{{-1, -1}, {1, -1}, {1, 1}, {-1, 1}}
			for k, s := range signs {
				corners[k] = center.Add(ux.Scale(s[0] * w / 2)).Add(uy.Scale(s[1] * h / 2))
			}
			best = OrientedRect{Center: center, W: w, H: h, Angle: angle, Corners: corners}
		}
	}
	return best
}

// lineIntersection returns the intersection point of the infinite lines
// through (a1,a2) and (b1,b2). ok is false for (near-)parallel lines.
func lineIntersection(a1, a2, b1, b2 geom.Point) (geom.Point, bool) {
	d1 := a2.Sub(a1)
	d2 := b2.Sub(b1)
	den := d1.CrossVec(d2)
	if math.Abs(den) < geom.Eps {
		return geom.Point{}, false
	}
	t := b1.Sub(a1).CrossVec(d2) / den
	return a1.Add(d1.Scale(t)), true
}

// MinBoundingKGon circumscribes a convex ring by a convex polygon with at
// most k edges, greedily removing one edge at a time with minimal area
// addition — the heuristic flavour of Dori and Ben-Bassat [DB 83] the
// paper uses to compute the minimum bounding 4-corner and 5-corner.
// Removing edge (v_i, v_{i+1}) replaces it by the intersection point of
// the two neighbouring edge lines, adding the area of the triangle
// (v_i, x, v_{i+1}). If the hull already has at most k vertices it is
// returned unchanged. k must be at least 3.
func MinBoundingKGon(hull geom.Ring, k int) geom.Ring {
	if k < 3 {
		panic("convex: k-gon needs k >= 3")
	}
	if len(hull) <= k {
		return hull.Clone()
	}
	ring := hull.Clone()
	for len(ring) > k {
		n := len(ring)
		bestIdx := -1
		bestCost := math.Inf(1)
		var bestX geom.Point
		for i := 0; i < n; i++ {
			prevA := ring[(i-1+n)%n]
			prevB := ring[i]
			nextA := ring[(i+1)%n]
			nextB := ring[(i+2)%n]
			x, ok := lineIntersection(prevA, prevB, nextA, nextB)
			if !ok {
				continue
			}
			// The intersection must lie forward of the previous edge and
			// backward of the next edge, otherwise the removal would not
			// produce an enclosing polygon.
			if x.Sub(prevB).Dot(prevB.Sub(prevA)) < -geom.Eps {
				continue
			}
			if nextA.Sub(x).Dot(nextB.Sub(nextA)) < -geom.Eps {
				continue
			}
			cost := math.Abs(geom.Cross(ring[i], x, nextA)) / 2
			if cost < bestCost {
				bestCost = cost
				bestIdx = i
				bestX = x
			}
		}
		if bestIdx < 0 {
			break // no admissible removal (e.g. parallel neighbours everywhere)
		}
		// Replace vertices bestIdx and bestIdx+1 by the intersection point.
		next := (bestIdx + 1) % n
		out := make(geom.Ring, 0, n-1)
		for j := 0; j < n; j++ {
			switch j {
			case bestIdx:
				out = append(out, bestX)
			case next:
				// dropped
			default:
				out = append(out, ring[j])
			}
		}
		ring = out
	}
	return ring
}

// clipHalfPlane appends to dst the part of ring on the left of the
// directed line a→b (inclusive); dst must not alias ring.
func clipHalfPlane(dst geom.Ring, ring geom.Ring, a, b geom.Point) geom.Ring {
	out := dst
	n := len(ring)
	for i := 0; i < n; i++ {
		cur := ring[i]
		nxt := ring[(i+1)%n]
		curIn := geom.Cross(a, b, cur) >= -geom.Eps
		nxtIn := geom.Cross(a, b, nxt) >= -geom.Eps
		switch {
		case curIn && nxtIn:
			out = append(out, nxt)
		case curIn && !nxtIn:
			if x, ok := lineIntersection(cur, nxt, a, b); ok {
				out = append(out, x)
			}
		case !curIn && nxtIn:
			if x, ok := lineIntersection(cur, nxt, a, b); ok {
				out = append(out, x)
			}
			out = append(out, nxt)
		}
	}
	return out
}

// clipScratch is the ping-pong buffer pair of one pooled clipping run;
// IntersectionArea runs once per candidate pair under the false-area
// test, so its working memory is recycled.
type clipScratch struct{ a, b geom.Ring }

var clipPool = sync.Pool{New: func() any { return new(clipScratch) }}

// IntersectionArea returns the area of the intersection of two convex
// counterclockwise rings via Sutherland–Hodgman clipping. It retains no
// result: the intersection is built in pooled scratch buffers and only
// its area escapes, so the per-pair false-area test of section 3.3
// allocates nothing in steady state.
func IntersectionArea(a, b geom.Ring) float64 {
	sc := clipPool.Get().(*clipScratch)
	defer clipPool.Put(sc)
	cur := append(sc.a[:0], a...)
	out := sc.b[:0]
	n := len(b)
	for i := 0; i < n && len(cur) > 0; i++ {
		out = clipHalfPlane(out[:0], cur, b[i], b[(i+1)%n])
		cur, out = out, cur
	}
	sc.a, sc.b = cur, out // store back the grown capacities
	if len(cur) < 3 {
		return 0
	}
	return cur.Area()
}

// SATIntersects reports whether two convex counterclockwise rings share at
// least one point, via the separating-axis theorem: the rings are disjoint
// iff some edge normal of either ring separates their projections.
// Touching boundaries count as intersecting.
func SATIntersects(a, b geom.Ring) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	return !hasSeparatingAxis(a, b) && !hasSeparatingAxis(b, a)
}

// hasSeparatingAxis reports whether some outward edge normal n of a
// separates the projections of a and b: minB > maxA + Eps, where minB is
// the smallest projection of b on n and maxA the largest of a. A NaN
// projection never proves separation — a filter must not reject what it
// cannot decide — so an axis with one is not separating.
//
// Most axes do not separate, and a single vertex of b shows it. The
// edge's endpoints p and q are vertices of a, so lo = max(proj(p),
// proj(q)) + Eps is at most maxA + Eps (rounded addition is monotone):
// a vertex of b projecting to at most lo, or to NaN, decides the axis
// before the rest of a is projected. Only an axis on which all of b lies
// above lo is decided by the full comparison, on exactly the operands a
// projection of every vertex gives.
func hasSeparatingAxis(a, b geom.Ring) bool {
	p := a[len(a)-1]
next:
	for _, q := range a {
		nx, ny := q.Y-p.Y, p.X-q.X
		lo := max(proj(p, nx, ny), proj(q, nx, ny)) + geom.Eps
		p = q
		minB := math.Inf(1)
		for _, v := range b {
			d := proj(v, nx, ny)
			if !(d > lo) {
				continue next
			}
			minB = min(minB, d)
		}
		maxA := math.Inf(-1)
		for _, v := range a {
			maxA = max(maxA, proj(v, nx, ny))
		}
		if minB > maxA+geom.Eps {
			return true
		}
	}
	return false
}

// proj is the projection of v on the axis (nx, ny), unnormalised. Every
// projection of the separating-axis passes is this one expression, so
// they all round alike.
func proj(v geom.Point, nx, ny float64) float64 { return v.X*nx + v.Y*ny }

// Distance returns the Euclidean distance between the closed convex
// regions bounded by two counterclockwise rings: 0 when they intersect,
// otherwise the smallest distance between their boundaries, which for
// disjoint convex sets is attained between a vertex of one ring and an
// edge of the other — so the search enumerates vertex–edge pairs on
// squared distances and takes one square root at the end. Rings with
// fewer than three vertices are the point or segment they span. The
// result is exact, so it is a sound lower bound of the object distance
// when the rings are conservative approximations and a sound upper bound
// when they are progressive ones.
func Distance(a, b geom.Ring) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	if meets(a, b) {
		return 0
	}
	return math.Sqrt(min(vertexEdgeDist2(a, b, 0), vertexEdgeDist2(b, a, 0)))
}

// WithinDist reports whether the closed convex regions bounded by two
// counterclockwise rings lie within Euclidean distance eps of each
// other. It decides Distance(a, b) ≤ eps without computing the distance:
// every comparison is between squares, the answer is false at the first
// edge normal along which the rings are more than eps apart, and true at
// the first vertex–edge pair within eps.
func WithinDist(a, b geom.Ring, eps float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	eps2 := eps * eps
	if len(a) < 3 || len(b) < 3 {
		return meets(a, b) || vertexEdgeDist2(a, b, eps2) <= eps2 || vertexEdgeDist2(b, a, eps2) <= eps2
	}
	sepA, farA := axisGap(a, b, eps2)
	if farA {
		return false
	}
	sepB, farB := axisGap(b, a, eps2)
	if farB {
		return false
	}
	if !sepA && !sepB {
		return true // no separating axis: the regions intersect
	}
	return vertexEdgeDist2(a, b, eps2) <= eps2 || vertexEdgeDist2(b, a, eps2) <= eps2
}

// axisGap is hasSeparatingAxis's pass over every outward edge normal of
// a, with its arithmetic and its shortcut, so separated is exactly
// hasSeparatingAxis(a, b). far reports that along some normal the gap
// between the projections, in units of that normal's length, exceeds
// √eps2: b then lies beyond a half-plane more than that far from a.
func axisGap(a, b geom.Ring, eps2 float64) (separated, far bool) {
	p := a[len(a)-1]
next:
	for _, q := range a {
		nx, ny := q.Y-p.Y, p.X-q.X
		lo := max(proj(p, nx, ny), proj(q, nx, ny)) + geom.Eps
		p = q
		minB := math.Inf(1)
		for _, v := range b {
			d := proj(v, nx, ny)
			if !(d > lo) {
				continue next
			}
			minB = min(minB, d)
		}
		maxA := math.Inf(-1)
		for _, v := range a {
			maxA = max(maxA, proj(v, nx, ny))
		}
		if minB > maxA+geom.Eps {
			separated = true
			if gap := minB - maxA; gap*gap > eps2*(nx*nx+ny*ny) {
				return true, true
			}
		}
	}
	return separated, false
}

// vertexEdgeDist2 returns the smallest squared distance between a vertex
// of a and an edge of b — or the first one it finds that is at most
// stop2, which is all a caller comparing against stop2 needs to know.
func vertexEdgeDist2(a, b geom.Ring, stop2 float64) float64 {
	d2 := math.Inf(1)
	for j := range b {
		e := b.Edge(j)
		for _, v := range a {
			if d2 = min(d2, e.Dist2ToPoint(v)); d2 <= stop2 {
				return d2
			}
		}
	}
	return d2
}

// meets reports whether the closed regions of two non-empty rings share a
// point. Proper rings are decided by the separating-axis test; a ring
// with fewer than three vertices has no edge normals to test, so the
// segment it spans is checked against the other ring's edges and, when
// none crosses, for lying inside it.
func meets(a, b geom.Ring) bool {
	if len(a) >= 3 && len(b) >= 3 {
		return SATIntersects(a, b)
	}
	if len(a) >= 3 {
		a, b = b, a
	}
	s := geom.Segment{A: a[0], B: a[len(a)-1]}
	for j := range b {
		if s.Intersects(b.Edge(j)) {
			return true
		}
	}
	return len(b) >= 3 && b.ContainsPoint(s.A)
}
