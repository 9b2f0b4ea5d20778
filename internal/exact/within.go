package exact

import (
	"sync"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/ops"
)

// withinScratch holds the per-pair restricted edge sets of the
// within-distance kernel; recycled through a pool so the restriction
// allocates nothing in steady state.
type withinScratch struct {
	ea, eb []geom.Segment
}

var withinPool = sync.Pool{New: func() any { return new(withinScratch) }}

// WithinDistance decides the within-distance predicate on exact geometry:
// whether the closed polygonal regions of a and b lie within Euclidean
// distance eps of each other. It is the step 3 refinement of the ε-join.
// Every comparison is between squared distances and eps², so no edge
// pair costs a square root.
//
// The test runs in three stages, mirroring the intersection engines:
//
//  1. MBR distance pretest — the MBR distance lower-bounds the region
//     distance, so a gap above eps decides "no" without touching edges.
//  2. Containment fallback — intersecting regions have distance 0; the
//     only intersection configuration without a boundary pair at
//     distance 0 is containment, decided by the MBR-pretested
//     point-in-polygon test of section 4.
//  3. Boundary distance — edge pairs are scanned (counted as edge
//     intersection tests) with an early exit at the first pair within
//     eps (geom.Segment.WithinDist). With restrict set, the
//     search-space restriction of section 4.1 first drops every edge
//     farther than eps from the other object's MBR (counted as
//     edge–rectangle tests), the ε-analogue of clipping the sweep to
//     the MBR intersection.
//
// With eps = 0 the predicate coincides with the intersection predicate.
func WithinDistance(a, b *PreparedPolygon, eps float64, restrict bool, c *ops.Counters) bool {
	eps2 := eps * eps
	c.RectIntersection++
	if a.MBR.Dist2(b.MBR) > eps2 {
		return false
	}
	if containmentFallback(a, b, c) {
		return true
	}
	ea, eb := a.Edges, b.Edges
	if restrict {
		sc := withinPool.Get().(*withinScratch)
		defer withinPool.Put(sc)
		sc.ea = edgesNear(a.Edges, b.MBR, eps2, sc.ea[:0], c)
		sc.eb = edgesNear(b.Edges, a.MBR, eps2, sc.eb[:0], c)
		ea, eb = sc.ea, sc.eb
	}
	for _, sa := range ea {
		for _, sb := range eb {
			c.EdgeIntersection++
			if sa.WithinDist(sb, eps2) {
				return true
			}
		}
	}
	return false
}

// edgesNear appends the edges within √eps2 of the rectangle to buf — the
// only edges that can realize a boundary distance of at most that to an
// object bounded by r. Every candidate edge is one edge–rectangle test.
func edgesNear(edges []geom.Segment, r geom.Rect, eps2 float64, buf []geom.Segment, c *ops.Counters) []geom.Segment {
	out := buf
	for _, e := range edges {
		c.EdgeRect++
		if e.Bounds().Dist2(r) <= eps2 {
			out = append(out, e)
		}
	}
	return out
}
