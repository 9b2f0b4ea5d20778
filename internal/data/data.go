// Package data generates the synthetic cartographic relations that stand
// in for the paper's proprietary map data (see DESIGN.md, substitutions).
//
// A relation is a tiling of "counties": a jittered grid whose cell
// boundaries are fractal polylines produced by midpoint displacement.
// Adjacent cells share each displaced boundary exactly, like real
// administrative subdivisions; a global rotation of the map puts cell
// edges in general position relative to the axes, reproducing the high
// normalized MBR false areas the paper measures on real data (Table 1:
// ∅ ≈ 0.9–1.0). A configurable fraction of cells carries a lake-like hole
// (section 2.1: polygons with holes). One generator, StreamMap, emits a
// map polygon by polygon; GenerateMap collects it. All generation is
// deterministic in the seed.
//
// The paper's test series are reproduced by the two strategies of
// section 3.1: strategy A joins a relation with a shifted copy of itself;
// strategy B randomly shifts and rotates each object and rescales so the
// object areas sum to the data-space area.
package data

import (
	"math"
	"math/rand"

	"spatialjoin/internal/geom"
)

// MapConfig parameterizes StreamMap and GenerateMap.
type MapConfig struct {
	// Cells is the approximate number of polygons (rounded to a grid).
	Cells int
	// TargetVerts is the average vertex count per polygon (the paper's
	// m∅: 84 for Europe, 527 for BW).
	TargetVerts int
	// HoleFraction of the cells receive one lake-like hole.
	HoleFraction float64
	// Rotation of the whole map in radians; non-axis-parallel boundaries
	// make MBRs as loose as on real maps. Defaults to ≈ 0.5 rad when 0.
	Rotation float64
	// Roughness of the fractal boundary displacement in (0, 0.5); defaults
	// to 0.24 when 0.
	Roughness float64
	// FjordProb is the probability that a cell boundary carries a deep
	// bay. Real municipalities are strongly non-convex (the paper's
	// Britain example); fjords raise the false area of the hull-family
	// approximations toward the paper's regime. Defaults to 0.7 when 0;
	// negative disables fjords.
	FjordProb float64
	// Extent scales the data space to [0, Extent]²; 0 means the unit
	// square. The scale-factor datasets (internal/loadgen) grow the
	// territory with √SF so object sizes and densities stay constant
	// across scale factors.
	Extent float64
	// Seed makes generation reproducible.
	Seed int64
}

// EuropeConfig mirrors the Europe relation of Figure 2: 810 polygons with
// on average 84 vertices.
func EuropeConfig() MapConfig {
	return MapConfig{Cells: 810, TargetVerts: 84, HoleFraction: 0.06, Seed: 9401}
}

// BWConfig mirrors the BW relation of Figure 2: 374 polygons with on
// average 527 vertices.
func BWConfig() MapConfig {
	return MapConfig{Cells: 374, TargetVerts: 527, HoleFraction: 0.08, Seed: 9402}
}

// BigConfig mirrors the 130,000-object relations of sections 3.4 and 5,
// scaled by n (pass 130000 for the paper's size). Vertex counts are kept
// moderate so the workload is index- and filter-bound, as in the paper's
// I/O experiments.
func BigConfig(n int, seed int64) MapConfig {
	return MapConfig{Cells: n, TargetVerts: 28, HoleFraction: 0.02, Seed: seed}
}

// GenerateMap materialises the map StreamMap emits: the same polygons in
// the same order, collected into one slice.
func GenerateMap(cfg MapConfig) []*geom.Polygon {
	if cfg.Cells < 1 {
		return nil
	}
	polys := make([]*geom.Polygon, 0, cfg.Cells)
	// StreamMap fails only with an error of the callback, and this one
	// returns none.
	_, _ = StreamMap(cfg, func(_ int32, p *geom.Polygon) error {
		polys = append(polys, p)
		return nil
	})
	return polys
}

// edgeDepth varies the subdivision depth around the base so vertex counts
// spread like real data (Figure 2 reports mmin ≪ m∅ ≪ mmax).
func edgeDepth(rng *rand.Rand, base int) int {
	d := base
	switch r := rng.Float64(); {
	case r < 0.15:
		d--
	case r > 0.85:
		d++
	}
	if d < 0 {
		d = 0
	}
	return d
}

// displace builds a fractal polyline from a to b (inclusive) with 2^depth
// segments by recursive midpoint displacement. The perpendicular offset is
// bounded by roughness·length and halves per level, which keeps the
// polyline inside a lens around the base segment and thus free of
// self-intersections and of crossings with neighbouring cell boundaries.
func displace(rng *rand.Rand, a, b geom.Point, depth int, roughness float64) []geom.Point {
	out := make([]geom.Point, 0, (1<<depth)+1)
	out = append(out, a)
	var rec func(a, b geom.Point, depth int, amp float64)
	rec = func(a, b geom.Point, depth int, amp float64) {
		if depth == 0 {
			out = append(out, b)
			return
		}
		mid := geom.Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
		d := b.Sub(a)
		// Perpendicular offset, uniformly in ±amp·|d|.
		off := (rng.Float64()*2 - 1) * amp
		mid = mid.Add(geom.Point{X: -d.Y * off, Y: d.X * off})
		rec(a, mid, depth-1, amp*0.55)
		rec(mid, b, depth-1, amp*0.55)
	}
	rec(a, b, depth, roughness)
	return out
}

// addFjords carves up to two deep bays into a boundary polyline. The bay
// is a perpendicular displacement of a contiguous middle run of points
// with a smooth (raised-cosine) profile, bounded by 0.21 of the edge
// length, so it cannot reach the opposite boundary of either adjacent cell
// (minimum cell thickness after corner jitter is ≈ 0.58 of the nominal
// size) and never touches the corner regions. One neighbour sees the bay,
// the other the complementary peninsula — the tiling stays exact.
func addFjords(rng *rand.Rand, line []geom.Point, prob float64) []geom.Point {
	n := len(line)
	if n < 9 || rng.Float64() >= prob {
		return line
	}
	a, b := line[0], line[n-1]
	d := b.Sub(a)
	fjords := 1 + rng.Intn(2)
	for f := 0; f < fjords; f++ {
		center := 0.3 + 0.4*rng.Float64()  // position along the edge
		width := 0.10 + 0.15*rng.Float64() // half-width along the edge
		depth := (0.14 + 0.12*rng.Float64())
		if rng.Intn(2) == 0 {
			depth = -depth
		}
		for i := 1; i < n-1; i++ {
			t := float64(i) / float64(n-1)
			u := (t - center) / width
			if u < -1 || u > 1 {
				continue
			}
			w := 0.5 * (1 + math.Cos(math.Pi*u)) // 1 at the bay axis, 0 at the rim
			line[i] = line[i].Add(geom.Point{X: -d.Y * depth * w, Y: d.X * depth * w})
		}
	}
	return line
}

// assembleCell stitches the four boundary polylines of a cell into one
// counterclockwise ring: bottom, right, top reversed, left reversed. The
// shared junction points are dropped once.
func assembleCell(bottom, right, top, left []geom.Point) []geom.Point {
	ring := make([]geom.Point, 0, len(bottom)+len(right)+len(top)+len(left)-4)
	ring = append(ring, bottom[:len(bottom)-1]...)
	ring = append(ring, right[:len(right)-1]...)
	for k := len(top) - 1; k > 0; k-- {
		ring = append(ring, top[k])
	}
	for k := len(left) - 1; k > 0; k-- {
		ring = append(ring, left[k])
	}
	return ring
}

// makeHole cuts a lake-like star hole around the cell centroid. ok is
// false when the holed polygon would not pass ValidateSimple, so a hole
// never touches the outer ring; a rejected hole draws no more numbers
// from rng than a kept one.
func makeHole(rng *rand.Rand, p *geom.Polygon) (geom.Ring, bool) {
	c := p.Outer.Centroid()
	if !p.Outer.ContainsPoint(c) {
		return nil, false
	}
	b := p.Bounds()
	r := 0.16 * math.Min(b.Width(), b.Height())
	n := 6 + rng.Intn(8)
	pts := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		rr := r * (0.6 + 0.4*rng.Float64())
		pts[i] = geom.Point{X: c.X + rr*math.Cos(ang), Y: c.Y + rr*math.Sin(ang)}
	}
	hole := geom.NewRing(pts).Reversed()
	holed := geom.Polygon{Outer: p.Outer, Holes: []geom.Ring{hole}}
	if holed.ValidateSimple() != nil {
		return nil, false
	}
	return hole, true
}

// StrategyA returns the paper's strategy A counterpart of rel: a copy
// shifted diagonally by the given fraction of the average object extent
// (section 3.1). The paper leaves the shift unspecified; 0.45 of the
// average extent yields candidate-set sizes in the regime of Table 2.
func StrategyA(rel []*geom.Polygon, fraction float64) []*geom.Polygon {
	if len(rel) == 0 {
		return nil
	}
	var extent float64
	for _, p := range rel {
		b := p.Bounds()
		extent += (b.Width() + b.Height()) / 2
	}
	extent /= float64(len(rel))
	d := extent * fraction
	out := make([]*geom.Polygon, len(rel))
	for i, p := range rel {
		out[i] = p.Translate(d, d)
	}
	return out
}

// StrategyB returns one strategy-B relation derived from rel: every object
// is randomly shifted and rotated within the unit data space, and all
// objects are scaled by a common factor so that the sum of the object
// areas equals the data-space area (section 3.1). Objects of the result
// may overlap each other.
func StrategyB(rel []*geom.Polygon, seed int64) []*geom.Polygon {
	if len(rel) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for _, p := range rel {
		sum += p.Area()
	}
	scale := 1.0
	if sum > 0 {
		scale = math.Sqrt(1.0 / sum)
	}
	out := make([]*geom.Polygon, len(rel))
	for i, p := range rel {
		b := p.Bounds()
		c := b.Center()
		ang := rng.Float64() * 2 * math.Pi
		// Scale about the object center, rotate, then place the object at
		// a uniform position such that its scaled extent stays inside the
		// unit square.
		half := math.Max(b.Width(), b.Height()) * scale * 0.75
		tx := half + rng.Float64()*math.Max(0, 1-2*half)
		ty := half + rng.Float64()*math.Max(0, 1-2*half)
		target := geom.Point{X: tx, Y: ty}
		out[i] = p.Transform(func(pt geom.Point) geom.Point {
			v := pt.Sub(c).Scale(scale).Rotate(ang)
			return target.Add(v)
		})
	}
	return out
}

// Series is one of the paper's four test series (section 3.1).
type Series struct {
	Name string
	R, S []*geom.Polygon
}

// europeA returns the Europe A test series.
func europeA() Series {
	r := GenerateMap(EuropeConfig())
	return Series{Name: "Europe A", R: r, S: StrategyA(r, 0.45)}
}

// europeB returns the Europe B test series.
func europeB() Series {
	r := GenerateMap(EuropeConfig())
	return Series{Name: "Europe B", R: StrategyB(r, 31), S: StrategyB(r, 32)}
}

// bwA returns the BW A test series.
func bwA() Series {
	r := GenerateMap(BWConfig())
	return Series{Name: "BW A", R: r, S: StrategyA(r, 0.45)}
}

// bwB returns the BW B test series.
func bwB() Series {
	r := GenerateMap(BWConfig())
	return Series{Name: "BW B", R: StrategyB(r, 41), S: StrategyB(r, 42)}
}

// AllSeries returns the four test series of Table 2.
func AllSeries() []Series {
	return []Series{europeA(), europeB(), bwA(), bwB()}
}

// VertexStats reports the Figure 2 complexity measures of a relation.
type VertexStats struct {
	Objects          int
	Avg              float64
	Min, Max         int
	WithHoles        int
	TotalVertexCount int
}

// Add accounts one more polygon of the relation.
func (st *VertexStats) Add(p *geom.Polygon) {
	n := p.NumVertices()
	if st.Objects == 0 || n < st.Min {
		st.Min = n
	}
	if n > st.Max {
		st.Max = n
	}
	if len(p.Holes) > 0 {
		st.WithHoles++
	}
	st.Objects++
	st.TotalVertexCount += n
	st.Avg = float64(st.TotalVertexCount) / float64(st.Objects)
}

// Stats computes the Figure 2 measures for a relation.
func Stats(rel []*geom.Polygon) VertexStats {
	var st VertexStats
	for _, p := range rel {
		st.Add(p)
	}
	return st
}
