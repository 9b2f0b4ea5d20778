package approx

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
)

// sf001 streams the first n objects (all when n is 0) of one side of the
// SF 0.01 dataset: loadgen.For(0.01)'s sizes and seeds, written out here
// because loadgen depends on approx.
func sf001(tb testing.TB, side string, n int) []*geom.Polygon {
	tb.Helper()
	mc := data.MapConfig{Cells: 1300, TargetVerts: 28, HoleFraction: 0.06, Extent: math.Sqrt(0.01), Seed: 73_520_100}
	if side == "S" {
		mc.Seed++
	}
	var polys []*geom.Polygon
	enough := errors.New("enough objects")
	_, err := data.StreamMap(mc, func(_ int32, p *geom.Polygon) error {
		polys = append(polys, p)
		if len(polys) == n {
			return enough
		}
		return nil
	})
	if err != nil && err != enough {
		tb.Fatal(err)
	}
	return polys
}

// merEnclosed reports whether r lies in the closed region of p, by the
// inclusion predicate; the empty rectangle trivially does.
func merEnclosed(p *geom.Polygon, r geom.Rect) bool {
	if r.IsEmpty() {
		return true
	}
	c := r.Corners()
	return p.ContainsPolygon(geom.NewPolygon(c[:]))
}

// TestMaxEnclosedRectMatchesReference pins the strip sweep to the
// strip-by-strip enumeration it replaced: on the SF 0.01 corpus every MER is enclosed,
// and it equals the reference bit for bit wherever the reference is
// enclosed. The objects that differ are exactly the ones whose reference
// MER leaves the object — each through a strip that touched the chord only
// at an endpoint.
func TestMaxEnclosedRectMatchesReference(t *testing.T) {
	wantRepaired := map[string][]int{
		"R": {131, 302, 456, 465, 475, 691, 958},
		"S": {53, 323},
	}
	for _, side := range []string{"R", "S"} {
		var repaired []int
		for id, p := range sf001(t, side, 0) {
			got, ref := maxEnclosedRect(p), referenceMER(p)
			if !merEnclosed(p, got) {
				t.Errorf("%s %d: MER %v is not enclosed", side, id, got)
			}
			if got == ref {
				continue
			}
			if merEnclosed(p, ref) {
				t.Errorf("%s %d: MER %v differs from the enclosed reference %v", side, id, got, ref)
				continue
			}
			repaired = append(repaired, id)
		}
		if !slices.Equal(repaired, wantRepaired[side]) {
			t.Errorf("%s: repaired objects %v, want %v", side, repaired, wantRepaired[side])
		}
	}
}

// TestMaxEnclosedRectEnclosed checks enclosure on the shapes that stress
// the strip rule: holes, spikes, collinear runs, duplicate vertices,
// axis-parallel boundaries lying on the rectangle's sides, and a chord
// ending at a reflex vertex.
func TestMaxEnclosedRectEnclosed(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	type tc struct {
		name string
		p    *geom.Polygon
		want geom.Rect // checked when not the zero Rect
	}
	cases := []tc{
		{name: "L", p: geom.NewPolygon([]geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 2}, {X: 0, Y: 2}})},
		{name: "frame", p: geom.NewPolygon(sq(1.5, 1.5, 1.5), sq(1.5, 1.5, 0.5)),
			want: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 3}},
		{name: "collinear runs", p: geom.NewPolygon([]geom.Point{
			{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}, {X: 3, Y: 1}, {X: 3, Y: 2},
			{X: 2, Y: 2}, {X: 2, Y: 3}, {X: 1, Y: 3}, {X: 0, Y: 3}, {X: 0, Y: 2}, {X: 0, Y: 1}})},
		{name: "duplicate vertices", p: geom.NewPolygon([]geom.Point{
			{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 1.5}, {X: 2, Y: 3}, {X: 2, Y: 3}, {X: 0, Y: 3}, {X: -1, Y: 1.5}, {X: 0, Y: 0}})},
		{name: "spike", p: geom.NewPolygon([]geom.Point{
			{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 0.9}, {X: 9, Y: 1.0}, {X: 2, Y: 1.1}, {X: 2, Y: 2}, {X: 0, Y: 2}})},
		// The chord runs from (0,1) to the notch tip (4,1); the rectangle
		// touches the tip with its right side.
		{name: "chord ends at a reflex vertex", p: geom.NewPolygon([]geom.Point{
			{X: 0, Y: 1}, {X: 2, Y: -1}, {X: 6, Y: -1.2}, {X: 4, Y: 1}, {X: 5, Y: 3}, {X: 2, Y: 3.2}}),
			want: geom.Rect{MinX: 2, MinY: -1, MaxX: 4, MaxY: 3}},
	}
	for i := 0; i < 20; i++ {
		star := starPoly(rng, 0, 0, 1, 6+rng.Intn(40))
		cases = append(cases, tc{name: fmt.Sprintf("star %d", i), p: star})
		hole := starPoly(rng, 0, 0, 0.3, 3+rng.Intn(8))
		cases = append(cases, tc{name: fmt.Sprintf("star %d with hole", i), p: geom.NewPolygon(star.Outer, hole.Outer)})
	}
	for _, c := range cases {
		r := maxEnclosedRect(c.p)
		if r.IsEmpty() || r.Area() <= 0 {
			t.Errorf("%s: no MER (%v)", c.name, r)
			continue
		}
		if !merEnclosed(c.p, r) {
			t.Errorf("%s: MER %v is not enclosed", c.name, r)
		}
		if c.want != (geom.Rect{}) && r != c.want {
			t.Errorf("%s: MER %v, want %v", c.name, r, c.want)
		}
	}
}

// FuzzMaxEnclosedRect asserts enclosure on star polygons, some with a
// hole, snapped to an integer grid of k units per radius, so that equal
// coordinates, collinear edges and axis-parallel edges are common.
func FuzzMaxEnclosedRect(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(4))
	f.Add(int64(2), uint8(30), uint8(9))
	f.Add(int64(7), uint8(5), uint8(1))
	// The longest chord runs along a horizontal edge, which the strip
	// sweep ignores as a constraint: only the certificate rejects the
	// strips above it, where the region is not.
	f.Add(int64(67), uint8(29), uint8(89))
	f.Fuzz(func(t *testing.T, seed int64, n, step uint8) {
		rng := rand.New(rand.NewSource(seed))
		k := float64(2 + step%12)
		snap := func(p *geom.Polygon) []geom.Point {
			pts := p.Outer.Clone()
			for i := range pts {
				pts[i] = geom.Point{X: math.Round(pts[i].X * k), Y: math.Round(pts[i].Y * k)}
			}
			return pts
		}
		outer := snap(starPoly(rng, 0, 0, 1, 3+int(n%60)))
		var p *geom.Polygon
		if seed%2 == 0 {
			p = geom.NewPolygon(outer)
		} else {
			p = geom.NewPolygon(outer, snap(starPoly(rng, 0, 0, 0.3, 3+int(n%5))))
		}
		if p.ValidateSimple() != nil {
			t.Skip("not a simple polygon")
		}
		if r := maxEnclosedRect(p); !merEnclosed(p, r) {
			t.Fatalf("MER %v is not enclosed by %v", r, p)
		}
	})
}

// BenchmarkCompute times Compute per approximation kind over the first 200
// objects of the SF 0.01 corpus; MBR alone is the floor every kind pays.
func BenchmarkCompute(b *testing.B) {
	polys := sf001(b, "R", 200)
	for k := MBR; k <= MER; k++ {
		var opt Options
		switch {
		case k == MBR:
		case k.Conservative():
			opt.Conservative = []Kind{k}
		default:
			opt.Progressive = []Kind{k}
		}
		b.Run(k.String(), func(b *testing.B) {
			for b.Loop() {
				for _, p := range polys {
					Compute(p, opt)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(polys)), "us/obj")
		})
	}
}

// referenceMER is maxEnclosedRect as it was before the strip sweep: every
// strip evaluated from scratch by stripFreeInterval, strips touching the
// chord at an endpoint admitted, no certificate, and the chord found by
// one ray walk per direction (referenceChord).
func referenceMER(p *geom.Polygon) geom.Rect {
	var edges []geom.Segment
	edges = p.Edges(edges)
	var verts []geom.Point
	verts = p.Vertices(verts)

	chord, ok := referenceChord(p, edges, verts)
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

	best := geom.EmptyRect()
	bestArea := 0.0
	for i := 0; i < len(xs); i++ {
		x1 := xs[i]
		if x1 > xr {
			break // the strip can no longer intersect the chord span
		}
		for j := i + 1; j < len(xs); j++ {
			x2 := xs[j]
			if x2 < xl {
				continue // strip entirely left of the chord span
			}
			if (x2-x1)*maxPossibleHeight(p.Bounds()) <= bestArea {
				// Even the full bounding-box height cannot beat the
				// incumbent; wider strips only shrink the free height.
				continue
			}
			floor, ceil, valid := stripFreeInterval(edges, x1, x2, yc)
			if !valid || ceil-floor <= 0 {
				continue
			}
			y1, ok1 := smallestAtLeast(ysBelow, floor)
			y2, ok2 := largestAtMost(ysAbove, ceil)
			if !ok1 || !ok2 || y1 > yc || y2 < yc || y2 <= y1 {
				continue
			}
			if area := (x2 - x1) * (y2 - y1); area > bestArea {
				bestArea = area
				best = geom.Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
			}
		}
	}
	return best
}

func maxPossibleHeight(b geom.Rect) float64 { return b.Height() }

// stripFreeInterval computes the free vertical interval around the chord
// level yc inside the strip (x1, x2): floor is the highest boundary point
// below yc, ceil the lowest boundary point above yc. valid is false when
// some edge crosses the chord level strictly inside the strip, which rules
// out any rectangle of this width.
func stripFreeInterval(edges []geom.Segment, x1, x2, yc float64) (floor, ceil float64, valid bool) {
	floor = math.Inf(-1)
	ceil = math.Inf(1)
	for _, e := range edges {
		exLo := math.Min(e.A.X, e.B.X)
		exHi := math.Max(e.A.X, e.B.X)
		if exHi <= x1+geom.Eps || exLo >= x2-geom.Eps {
			continue // edge outside the open strip
		}
		// Clip the edge to the strip and take its y range there.
		lo, hi := edgeYRangeInStrip(e, math.Max(exLo, x1), math.Min(exHi, x2))
		switch {
		case lo >= yc-geom.Eps && hi <= yc+geom.Eps:
			// Edge lies on the chord level: the chord itself borders such
			// edges; they constrain nothing beyond the level line.
			continue
		case lo > yc:
			if lo < ceil {
				ceil = lo
			}
		case hi < yc:
			if hi > floor {
				floor = hi
			}
		default:
			return 0, 0, false // edge crosses the chord level inside the strip
		}
	}
	return floor, ceil, true
}

// referenceChord is longestHorizontalChord before both rays from a vertex
// were walked in one pass over the edges.
func referenceChord(p *geom.Polygon, edges []geom.Segment, verts []geom.Point) (geom.Segment, bool) {
	var best geom.Segment
	bestLen := -1.0
	for _, v := range verts {
		for _, dir := range [2]float64{1, -1} {
			end, ok := referenceRayExit(p, edges, v, dir)
			if !ok {
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

// referenceRayExit walks from v in direction dir (±x) and returns the x
// coordinate where the ray first meets the boundary again.
func referenceRayExit(p *geom.Polygon, edges []geom.Segment, v geom.Point, dir float64) (float64, bool) {
	bestX := math.Inf(1) * dir
	found := false
	for _, e := range edges {
		lo := math.Min(e.A.Y, e.B.Y)
		hi := math.Max(e.A.Y, e.B.Y)
		if v.Y < lo-geom.Eps || v.Y > hi+geom.Eps {
			continue
		}
		dy := e.B.Y - e.A.Y
		if math.Abs(dy) < geom.Eps {
			// Horizontal edge on the ray's line: its endpoints bound the ray.
			for _, ex := range [2]float64{e.A.X, e.B.X} {
				if (ex-v.X)*dir > geom.Eps && (!found || (ex-bestX)*dir < 0) {
					bestX = ex
					found = true
				}
			}
			continue
		}
		t := (v.Y - e.A.Y) / dy
		if t < -geom.Eps || t > 1+geom.Eps {
			continue
		}
		x := e.A.X + t*(e.B.X-e.A.X)
		if (x-v.X)*dir > geom.Eps {
			if !found || (x-bestX)*dir < 0 {
				bestX = x
				found = true
			}
		}
	}
	return bestX, found
}
