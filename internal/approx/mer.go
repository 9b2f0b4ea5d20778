package approx

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"spatialjoin/internal/geom"
)

// MERMaxCandidates caps the number of distinct x coordinates enumerated by
// maxEnclosedRect. The paper's definition restricts rectangle coordinates
// to vertex coordinates; with complex objects (the BW relation averages
// 527 vertices) the implementation subsamples the candidate set uniformly
// beyond this cap, which bounds the strips per object at MERMaxCandidates²/2
// while changing the found rectangle only marginally (quality is reported
// by the Figure 8 experiment).
const MERMaxCandidates = 48

// maxEnclosedRect returns the paper's maximum enclosed rectangle (MER) of
// p (section 3.3): a rectilinear rectangle contained in the closed region
// that (1) intersects the longest enclosed horizontal connection starting
// in a vertex of the polygon and (2) has x and y coordinates drawn from
// the vertex coordinates. The empty rectangle is returned for degenerate
// polygons where no such rectangle exists.
//
// The strip rule: a candidate strip [x1, x2] spans two candidate x's and
// overlaps the chord's open span (x1 < xr and x2 > xl), so the chord
// crosses its interior. Inside the strip the boundary leaves a free
// vertical interval around the chord level; the rectangle is the strip
// with that interval snapped inward to vertex y's. For each x1 one
// left-to-right sweep over x2 maintains the interval: an edge whose x
// range ends inside the strip is clipped and folded in once, only the
// edges straddling x2 are re-clipped per step, and the sweep stops at the
// first strip an edge crosses at chord level or that has no room left —
// widening a strip only adds boundary, so every wider strip fails too.
// The result is the first largest rectangle that enclosed certifies.
func maxEnclosedRect(p *geom.Polygon) geom.Rect {
	edges := p.Edges(nil)
	verts := p.Vertices(nil)

	chord, ok := longestHorizontalChord(p, edges, verts)
	if !ok {
		return geom.EmptyRect()
	}
	yc := chord.A.Y
	xl := math.Min(chord.A.X, chord.B.X)
	xr := math.Max(chord.A.X, chord.B.X)

	// Candidate x coordinates: vertex x's, clipped to be usable by a
	// rectangle intersecting the chord span, plus the chord endpoints.
	xsSet := map[float64]struct{}{xl: {}, xr: {}}
	for _, v := range verts {
		xsSet[v.X] = struct{}{}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	xs = subsample(xs, MERMaxCandidates)

	// Candidate y coordinates, split around the chord level.
	ysBelow := []float64{yc} // y1 candidates (≤ yc)
	ysAbove := []float64{yc} // y2 candidates (≥ yc)
	for _, v := range verts {
		if v.Y <= yc {
			ysBelow = append(ysBelow, v.Y)
		}
		if v.Y >= yc {
			ysAbove = append(ysAbove, v.Y)
		}
	}
	sort.Float64s(ysBelow)
	sort.Float64s(ysAbove)

	// Edges in order of their minimum x, the order a sweep meets them.
	byLo := make([]spanEdge, len(edges))
	for i, e := range edges {
		byLo[i] = spanEdge{e: e, lo: min(e.A.X, e.B.X), hi: max(e.A.X, e.B.X)}
	}
	slices.SortFunc(byLo, func(a, b spanEdge) int { return cmp.Compare(a.lo, b.lo) })

	height := p.Bounds().Height()
	var straddling []spanEdge
	// search returns the first largest candidate, among the certified ones
	// when certify is set.
	search := func(certify bool) geom.Rect {
		best, bestArea := geom.EmptyRect(), 0.0
		for i, x1 := range xs {
			if x1 >= xr || (xs[len(xs)-1]-x1)*height <= bestArea {
				break // no strip left overlaps the chord's open span and can win
			}
			// Sweep x2 rightwards. An edge is in the open strip once its x
			// range overlaps (x1+Eps, x2−Eps); floor and ceil hold the free
			// interval over the edges whose x range ends inside the strip,
			// straddling the edges that extend past x2.
			next, floor, ceil, crossed := 0, math.Inf(-1), math.Inf(1), false
			straddling = straddling[:0]
			for _, x2 := range xs[i+1:] {
				for ; next < len(byLo) && byLo[next].lo < x2-geom.Eps; next++ {
					if e := byLo[next]; e.hi > x1+geom.Eps {
						straddling = append(straddling, e)
					}
				}
				fl, ce := math.Inf(-1), math.Inf(1)
				kept := straddling[:0]
				for _, e := range straddling {
					if e.hi <= x2 { // its clip no longer depends on x2: fold it in for good
						crossed = crossed || !fold(e, x1, e.hi, yc, &floor, &ceil)
					} else {
						kept = append(kept, e)
						crossed = crossed || !fold(e, x1, x2, yc, &fl, &ce)
					}
				}
				straddling = kept
				fl, ce = max(fl, floor), min(ce, ceil)
				if crossed || ce-fl <= 0 {
					break // crossed or no room: so is every wider strip
				}
				if x2 <= xl {
					continue // strip left of the chord's open span
				}
				if (x2-x1)*height <= bestArea {
					continue // even the full bounding-box height cannot win
				}
				y1, ok1 := smallestAtLeast(ysBelow, fl)
				y2, ok2 := largestAtMost(ysAbove, ce)
				if !ok1 || !ok2 || y1 > yc || y2 < yc || y2 <= y1 {
					continue
				}
				r := geom.Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
				if area := (x2 - x1) * (y2 - y1); area > bestArea && (!certify || enclosed(p, edges, r)) {
					best, bestArea = r, area
				}
			}
		}
		return best
	}
	// The first largest candidate is almost always enclosed, and then it is
	// also the first largest certified one: certify it alone, and certify
	// every improvement only when it fails.
	if best := search(false); best.IsEmpty() || enclosed(p, edges, best) {
		return best
	}
	return search(true)
}

// spanEdge is a polygon edge with its x range.
type spanEdge struct {
	e      geom.Segment
	lo, hi float64
}

// fold narrows the free interval (floor, ceil) around the chord level yc
// by edge e clipped to [max(e.lo, x1), b]. It reports false when the
// clipped edge crosses the chord level, which rules out the strip.
func fold(e spanEdge, x1, b, yc float64, floor, ceil *float64) bool {
	lo, hi := edgeYRangeInStrip(e.e, max(e.lo, x1), b)
	switch {
	case lo >= yc-geom.Eps && hi <= yc+geom.Eps:
		// Edge lies on the chord level: the chord itself borders such
		// edges; they constrain nothing beyond the level line.
	case lo > yc:
		*ceil = min(*ceil, lo)
	case hi < yc:
		*floor = max(*floor, hi)
	default:
		return false
	}
	return true
}

// enclosed certifies that the closed rectangle r lies in the closed region
// of p: no ring edge meets the open rectangle — decided with exact
// orientations, so no rounding can let an edge through — and a point
// strictly inside it lies in the region. The open rectangle is connected
// and free of boundary, so it lies wholly inside or wholly outside.
func enclosed(p *geom.Polygon, edges []geom.Segment, r geom.Rect) bool {
	c := geom.Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
	if !(r.MinX < c.X && c.X < r.MaxX && r.MinY < c.Y && c.Y < r.MaxY) {
		return false
	}
	corners := r.Corners()
	for _, e := range edges {
		if meetsOpenRect(e, r, &corners) {
			return false
		}
	}
	return p.ContainsPoint(c)
}

// meetsOpenRect reports whether the closed segment e shares a point with
// the interior of r. Past the bounding-box test, a segment meets the
// interior iff its line has corners of r strictly on both sides: a
// segment that stops short of the interior lies beyond one side of r,
// where its bounding box cannot overlap the interior.
func meetsOpenRect(e geom.Segment, r geom.Rect, corners *[4]geom.Point) bool {
	if max(e.A.X, e.B.X) <= r.MinX || min(e.A.X, e.B.X) >= r.MaxX ||
		max(e.A.Y, e.B.Y) <= r.MinY || min(e.A.Y, e.B.Y) >= r.MaxY {
		return false
	}
	if e.A == e.B {
		return true // a point strictly inside r
	}
	var left, right bool
	for _, q := range corners {
		switch geom.OrientationAdaptive(e.A, e.B, q) {
		case 1:
			left = true
		case -1:
			right = true
		}
	}
	return left && right
}

// longestHorizontalChord finds the longest horizontal segment that starts
// in a vertex of p and stays inside the closed region.
func longestHorizontalChord(p *geom.Polygon, edges []geom.Segment, verts []geom.Point) (geom.Segment, bool) {
	var best geom.Segment
	bestLen := -1.0
	for _, v := range verts {
		left, right := horizontalRayExits(edges, v)
		for _, end := range [2]float64{right, left} {
			if math.IsInf(end, 0) {
				continue
			}
			if l := math.Abs(end - v.X); l > bestLen {
				// Confirm the midpoint is inside: the ray may leave the
				// region immediately at reflex vertices.
				mid := geom.Point{X: (v.X + end) / 2, Y: v.Y}
				if l > 0 && p.ContainsPoint(mid) {
					bestLen = l
					best = geom.Segment{A: v, B: geom.Point{X: end, Y: v.Y}}
				}
			}
		}
	}
	if bestLen <= 0 {
		return geom.Segment{}, false
	}
	return best, true
}

// horizontalRayExits walks from v along −x and +x and returns the x
// coordinates where the two rays first meet the boundary again, −Inf and
// +Inf for a ray that meets none.
func horizontalRayExits(edges []geom.Segment, v geom.Point) (left, right float64) {
	left, right = math.Inf(-1), math.Inf(1)
	exit := func(x float64) {
		if x-v.X > geom.Eps {
			right = min(right, x)
		} else if v.X-x > geom.Eps {
			left = max(left, x)
		}
	}
	for _, e := range edges {
		if v.Y < min(e.A.Y, e.B.Y)-geom.Eps || v.Y > max(e.A.Y, e.B.Y)+geom.Eps {
			continue
		}
		dy := e.B.Y - e.A.Y
		if math.Abs(dy) < geom.Eps {
			// Horizontal edge on the rays' line: its endpoints bound them.
			exit(e.A.X)
			exit(e.B.X)
			continue
		}
		if t := (v.Y - e.A.Y) / dy; t >= -geom.Eps && t <= 1+geom.Eps {
			exit(e.A.X + t*(e.B.X-e.A.X))
		}
	}
	return left, right
}

// edgeYRangeInStrip returns the y range of segment e over x ∈ [a, b],
// assuming e's x range covers [a, b] at least partially (callers clip).
func edgeYRangeInStrip(e geom.Segment, a, b float64) (lo, hi float64) {
	if math.Abs(e.B.X-e.A.X) < geom.Eps {
		// Vertical edge: its whole y range lies in the strip.
		return min(e.A.Y, e.B.Y), max(e.A.Y, e.B.Y)
	}
	ya, yb := e.YAt(a), e.YAt(b)
	return min(ya, yb), max(ya, yb)
}

// smallestAtLeast returns the smallest element of the sorted slice ys that
// is ≥ v.
func smallestAtLeast(ys []float64, v float64) (float64, bool) {
	i := sort.SearchFloat64s(ys, v)
	if i == len(ys) {
		return 0, false
	}
	return ys[i], true
}

// largestAtMost returns the largest element of the sorted slice ys that is
// ≤ v.
func largestAtMost(ys []float64, v float64) (float64, bool) {
	i := sort.SearchFloat64s(ys, v)
	if i < len(ys) && ys[i] == v {
		return v, true
	}
	if i == 0 {
		return 0, false
	}
	return ys[i-1], true
}

// subsample uniformly reduces xs to at most n entries, always keeping the
// first and last.
func subsample(xs []float64, n int) []float64 {
	if len(xs) <= n {
		return xs
	}
	out := make([]float64, 0, n)
	step := float64(len(xs)-1) / float64(n-1)
	last := -1
	for i := 0; i < n; i++ {
		idx := int(math.Round(float64(i) * step))
		if idx != last {
			out = append(out, xs[idx])
			last = idx
		}
	}
	return out
}
