package decomp

import (
	"sort"

	"spatialjoin/internal/geom"
)

// convexParts decomposes a polygon into convex polygons (Figure 14) in the
// spirit of Hertel–Mehlhorn: starting from a triangulation, inessential
// diagonals are removed greedily — two parts sharing an edge are merged
// whenever their union stays convex. The result is exact (parts tile the
// region) and within the Hertel–Mehlhorn 4-approximation of the minimal
// convex decomposition for hole-free polygons.
func convexParts(p *geom.Polygon) []geom.Ring {
	tris := triangulate(p)
	parts := make([]geom.Ring, len(tris))
	for i, t := range tris {
		parts[i] = t.Ring()
	}
	type edgeKey struct{ a, b geom.Point }
	key := func(a, b geom.Point) edgeKey {
		if a.X < b.X || (a.X == b.X && a.Y < b.Y) {
			return edgeKey{a, b}
		}
		return edgeKey{b, a}
	}
	merged := true
	for merged {
		merged = false
		// Index parts by their undirected edges; merge on first shared
		// edge whose removal keeps the union convex.
		owner := make(map[edgeKey]int)
		for i, part := range parts {
			if part == nil {
				continue
			}
			for j := range part {
				k := key(part[j], part[(j+1)%len(part)])
				other, seen := owner[k]
				if seen && other != i && parts[other] != nil {
					if u, okm := mergeAcross(parts[other], part, k.a, k.b); okm {
						parts[other] = u
						parts[i] = nil
						merged = true
						break
					}
				} else if !seen {
					owner[k] = i
				}
			}
		}
		parts = compact(parts)
	}
	sortRingsByMinX(parts)
	return parts
}

func compact(parts []geom.Ring) []geom.Ring {
	out := parts[:0]
	for _, p := range parts {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// mergeAcross joins two CCW rings sharing the undirected edge (a, b) into
// one ring and reports whether the union is convex.
func mergeAcross(r1, r2 geom.Ring, a, b geom.Point) (geom.Ring, bool) {
	// Locate the shared edge in each ring (as a directed edge; the rings
	// traverse it in opposite directions).
	i1 := findEdge(r1, a, b)
	i2 := findEdge(r2, a, b)
	if i1 < 0 || i2 < 0 {
		return nil, false
	}
	// Walk r1 from the end of its shared edge all the way around to its
	// start, then splice in r2's walk the same way.
	n1, n2 := len(r1), len(r2)
	var out geom.Ring
	for k := 1; k < n1; k++ {
		out = append(out, r1[(i1+k)%n1])
	}
	for k := 1; k < n2; k++ {
		out = append(out, r2[(i2+k)%n2])
	}
	out = dropCollinear(out)
	if len(out) < 3 || !out.IsConvex() || !out.IsCCW() {
		return nil, false
	}
	return out, true
}

// findEdge returns the index of the directed or reversed edge (a, b) in
// ring r, or -1.
func findEdge(r geom.Ring, a, b geom.Point) int {
	n := len(r)
	for i := 0; i < n; i++ {
		p, q := r[i], r[(i+1)%n]
		if (p == a && q == b) || (p == b && q == a) {
			return i
		}
	}
	return -1
}

// dropCollinear removes vertices that lie on the segment between their
// neighbours.
func dropCollinear(r geom.Ring) geom.Ring {
	n := len(r)
	if n < 3 {
		return r
	}
	var out geom.Ring
	for i := 0; i < n; i++ {
		a := r[(i-1+n)%n]
		b := r[i]
		c := r[(i+1)%n]
		if geom.Orientation(a, b, c) != 0 {
			out = append(out, b)
		}
	}
	if len(out) < 3 {
		return r
	}
	return out
}

// Stats summarizes a decomposition for the Figure 14 comparison.
type Stats struct {
	Components int
	TotalArea  float64
	MaxVerts   int
}

// TrapezoidStats summarizes the trapezoid decomposition of p.
func TrapezoidStats(p *geom.Polygon) Stats {
	traps := Trapezoidize(p)
	s := Stats{Components: len(traps), MaxVerts: 4}
	for _, t := range traps {
		s.TotalArea += t.Area()
	}
	return s
}

// TriangleStats summarizes the triangle decomposition of p.
func TriangleStats(p *geom.Polygon) Stats {
	tris := triangulate(p)
	s := Stats{Components: len(tris), MaxVerts: 3}
	for _, t := range tris {
		s.TotalArea += t.Area()
	}
	return s
}

// ConvexPartStats summarizes the convex decomposition of p.
func ConvexPartStats(p *geom.Polygon) Stats {
	parts := convexParts(p)
	s := Stats{Components: len(parts)}
	for _, part := range parts {
		s.TotalArea += part.Area()
		if len(part) > s.MaxVerts {
			s.MaxVerts = len(part)
		}
	}
	return s
}

// sortRingsByMinX orders rings deterministically for reproducible output.
func sortRingsByMinX(rings []geom.Ring) {
	sort.Slice(rings, func(i, j int) bool {
		bi := rings[i].Bounds()
		bj := rings[j].Bounds()
		if bi.MinX != bj.MinX {
			return bi.MinX < bj.MinX
		}
		return bi.MinY < bj.MinY
	})
}
