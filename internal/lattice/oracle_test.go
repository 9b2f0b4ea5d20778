package lattice

import (
	"math"
	"math/rand"
	"slices"

	"spatialjoin"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
)

// The one brute-force oracle: the section 2.3 nested-loops baseline,
// every pair of the Cartesian product decided on the exact geometry by
// the geom kernels (which no engine of the processor uses), and linear
// scans for the single-relation queries.

// nestedLoops returns the pairs of r × s for which holds is true, in
// (A, B) order.
func nestedLoops(r, s []*geom.Polygon, holds func(a, b *geom.Polygon) bool) []multistep.Pair {
	var out []multistep.Pair
	for i, a := range r {
		for j, b := range s {
			if holds(a, b) {
				out = append(out, multistep.Pair{A: int32(i), B: int32(j)})
			}
		}
	}
	return out
}

// The oracle's predicates: closed regions intersect, one contains the
// other, or their exact distance is within eps. The distance test skips
// pairs whose MBRs are more than eps apart (the MBR distance bounds the
// region distance from below; a slack of 1e-9, far above the rounding
// error of coordinates of a few units, keeps rounding out of it).
func intersects(a, b *geom.Polygon) bool { return a.Intersects(b) }
func contains(a, b *geom.Polygon) bool   { return a.ContainsPolygon(b) }
func within(eps float64) func(a, b *geom.Polygon) bool {
	return func(a, b *geom.Polygon) bool {
		return a.Bounds().Dist(b.Bounds()) <= eps+1e-9 && a.DistToPolygon(b) <= eps
	}
}

// mbrCandidates counts step 1's candidates by nested loops over the
// MBRs: the pairs within eps per axis and, for inclusion, nested.
func mbrCandidates(r, s []*geom.Polygon, eps float64, nested bool) (n int64) {
	for _, a := range r {
		for _, b := range s {
			if a.Bounds().Expand(eps).Intersects(b.Bounds()) && (!nested || a.Bounds().Contains(b.Bounds())) {
				n++
			}
		}
	}
	return n
}

// scan returns the ascending IDs of the objects keep accepts.
func scan(polys []*geom.Polygon, keep func(p *geom.Polygon) bool) []int32 {
	var ids []int32
	for i, p := range polys {
		if keep(p) {
			ids = append(ids, int32(i))
		}
	}
	return ids
}

// nearestScan returns the k objects nearest to q, by (distance, ID).
func nearestScan(polys []*geom.Polygon, q geom.Point, k int) []multistep.Neighbor {
	all := make([]multistep.Neighbor, len(polys))
	for i, p := range polys {
		all[i] = multistep.Neighbor{ID: int32(i), Dist: p.DistToPoint(q)}
	}
	slices.SortFunc(all, multistep.CompareNeighbors)
	return all[:min(k, len(all))]
}

// dataset is one input pair: deterministic, at most ~80 objects a side.
type dataset struct {
	name string
	r, s []*geom.Polygon
	self bool // s is r
}

// square is the outline of the square with lower-left corner (x, y).
func square(x, y, side float64) []geom.Point {
	return []geom.Point{{X: x, Y: y}, {X: x + side, Y: y}, {X: x + side, Y: y + side}, {X: x, Y: y + side}}
}

// datasets are generated maps and the shapes the kernels find hardest:
// regions that only touch, degenerate outlines, holes with parcels in
// them, deep containment, exact distance ties and an empty relation.
func datasets() []*dataset {
	m := spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 80, TargetVerts: 48, HoleFraction: 0.1, Seed: 211})
	b := spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 60, TargetVerts: 40, Seed: 223})
	self := spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 50, TargetVerts: 32, HoleFraction: 0.2, Seed: 229})
	sq := func(x, y, side float64) *geom.Polygon { return spatialjoin.NewPolygon(square(x, y, side)) }

	// A checkerboard of 1/8 squares: R the dark cells, S the light ones
	// (touching R along edges and at corners only), 1/16 squares in the
	// corners of dark cells (inside, sharing two edges) and 1/4 squares.
	var dark, light []*geom.Polygon
	for i := range 8 {
		for j := range 8 {
			x, y := float64(i)/8, float64(j)/8
			if (i+j)%2 == 1 {
				light = append(light, sq(x, y, 1.0/8))
				continue
			}
			if dark = append(dark, sq(x, y, 1.0/8)); i%2 == 0 {
				light = append(light, sq(x, y, 1.0/16))
			}
		}
	}
	for k := range 4 {
		light = append(light, sq(float64(k)/4, float64(3-k)/4, 1.0/4))
	}

	// Squares with a repeated and collinear vertices, and copies shifted
	// to touch them (by a side) or to overlap them (by half of one); and
	// annuli with, per annulus, a parcel inside the hole, one filling it
	// exactly, one across the rim and one in the solid band.
	var degR, degS, rings, parcels []*geom.Polygon
	for i := range 6 {
		for j := range 6 {
			x, y, h := float64(i)*3/16, float64(j)*3/16, 1.0/8
			p := geom.NewPolygon([]geom.Point{{X: x, Y: y}, {X: x + h/2, Y: y}, {X: x + h, Y: y}, {X: x + h, Y: y},
				{X: x + h, Y: y + h/4}, {X: x + h, Y: y + h}, {X: x, Y: y + h}, {X: x, Y: y + h/2}})
			degR, degS = append(degR, p), append(degS, p.Translate(h, 0))
			if (i+j)%2 == 1 {
				degS[len(degS)-1] = p.Translate(h/2, h/2)
			}
			if i < 3 && j < 3 {
				x, y := float64(i)*5/16, float64(j)*5/16
				rings = append(rings, geom.NewPolygon(square(x, y, 1.0/4), square(x+1.0/16, y+1.0/16, 1.0/8)))
				parcels = append(parcels, sq(x+3.0/32, y+3.0/32, 1.0/16), sq(x+1.0/16, y+1.0/16, 1.0/8),
					sq(x+3.0/16, y+3.0/32, 1.0/8), sq(x+1.0/128, y+1.0/128, 1.0/32))
			}
		}
	}

	// Stars: large regions against small parcels, many of them inside.
	rng := rand.New(rand.NewSource(317))
	star := func(cx, cy, radius float64, n int) *geom.Polygon {
		pts := make([]geom.Point, n)
		for i := range pts {
			a, r := 2*math.Pi*float64(i)/float64(n), radius*(0.4+0.6*rng.Float64())
			pts[i] = geom.Point{X: cx + r*math.Cos(a), Y: cy + r*math.Sin(a)}
		}
		return geom.NewPolygon(pts)
	}
	var big, small []*geom.Polygon
	for range 40 {
		big = append(big, star(rng.Float64()*4, rng.Float64()*4, 0.7+0.5*rng.Float64(), 8+rng.Intn(16)))
	}
	for range 80 {
		small = append(small, star(rng.Float64()*4, rng.Float64()*4, 0.05+0.25*rng.Float64(), 4+rng.Intn(10)))
	}

	// Forty coincident unit squares: nearest queries on them are decided
	// by the ID order alone.
	same := make([]*geom.Polygon, 40)
	for i := range same {
		same[i] = sq(0, 0, 1)
	}

	return []*dataset{
		{name: "map×A", r: m, s: spatialjoin.ShiftedCopy(m, 0.45)},
		{name: "B×B", r: spatialjoin.RandomizedCopy(b, 5), s: spatialjoin.RandomizedCopy(b, 6)},
		{name: "map-self", r: self, s: self, self: true},
		{name: "checkerboard", r: dark, s: light},
		{name: "degenerate", r: degR, s: degS},
		{name: "annuli", r: rings, s: parcels},
		{name: "stars", r: big, s: small},
		{name: "coincident", r: same, s: same, self: true},
		{name: "empty", r: nil, s: m},
	}
}
