package data

import (
	"math"
	"math/rand"

	"spatialjoin/internal/geom"
)

// StreamMap is the map generator: it emits the polygons of a generated
// map one at a time, in row-major cell order, holding only a two-row
// window of cell boundaries in memory — O(√n · m∅) instead of O(n · m∅).
// GenerateMap collects its output for the paper's experiments; the
// scale-factor datasets of the load harness (internal/loadgen), where
// an SF=10 relation has millions of polygons, consume it directly.
//
// Corner jitter derives from per-corner hashes and each cell's hole
// decision from a per-cell seed, so no state crosses the window but the
// frozen row boundary. Boundary repair is row-local: a cell may only
// tame edges no later row has already consumed. Repair resolutions:
//
//  1. A non-simple cell tames its top and side edges (its bottom edge
//     is frozen — the previous row already emitted it) and re-checks,
//     up to two taming levels (half roughness without fjords, then a
//     sixth).
//  2. If still non-simple, the cell regenerates a private gentle copy
//     of its bottom edge. The neighbour below keeps the wild version,
//     so the shared-boundary tiling is broken along that one edge (a
//     "seam"); StreamStats counts them. The paper's Europe and BW maps
//     have none.
//  3. As a last resort the cell falls back to its plain jittered quad,
//     which the jitter bound keeps simple.
//
// Generation is deterministic in cfg: the same configuration always
// yields the same polygon sequence, in one pass or across runs.
// cfg.Extent > 0 scales the data space to [0, Extent]² (the load
// harness grows the territory with the scale factor so object sizes
// and densities stay constant); 0 means the unit square.
//
// yield receives the cell's ID (dense, 0..Cells-1) and its polygon; a
// non-nil error aborts generation and is returned. The polygon is
// freshly allocated per call — the callback may retain it.
func StreamMap(cfg MapConfig, yield func(id int32, p *geom.Polygon) error) (StreamStats, error) {
	var st StreamStats
	if cfg.Cells < 1 {
		return st, nil
	}
	if cfg.Rotation == 0 {
		cfg.Rotation = 0.5
	}
	if cfg.Roughness == 0 {
		cfg.Roughness = 0.24
	}
	if cfg.FjordProb == 0 {
		cfg.FjordProb = 0.7
	}
	if cfg.FjordProb < 0 {
		cfg.FjordProb = 0
	}
	extent := cfg.Extent
	if extent <= 0 {
		extent = 1
	}

	kx := int(math.Round(math.Sqrt(float64(cfg.Cells))))
	if kx < 1 {
		kx = 1
	}
	ky := (cfg.Cells + kx - 1) / kx

	// Per-corner jitter from a position hash, so any corner is computable
	// on demand without replaying a global random stream.
	corner := func(i, j int) geom.Point {
		h := splitmix(uint64(cfg.Seed)*0x9E3779B97F4A7C15 + uint64(i)*0x85EBCA77C2B2AE63 + uint64(j)*0xC2B2AE3D27D4EB4F)
		jx := (unitFloat(h) - 0.5) * 0.42
		h = splitmix(h)
		jy := (unitFloat(h) - 0.5) * 0.42
		return geom.Point{
			X: (float64(i) + jx) / float64(kx) * extent,
			Y: (float64(j) + jy) / float64(ky) * extent,
		}
	}
	cornerRow := func(j int) []geom.Point {
		row := make([]geom.Point, kx+1)
		for i := range row {
			row[i] = corner(i, j)
		}
		return row
	}

	perSide := float64(cfg.TargetVerts) / 4
	baseDepth := int(math.Round(math.Log2(math.Max(1, perSide))))

	genEdge := func(a, b geom.Point, seed int64, level int) []geom.Point {
		erng := rand.New(rand.NewSource(seed))
		rough := cfg.Roughness
		fjord := cfg.FjordProb
		switch level {
		case 1:
			rough /= 2
			fjord = 0
		case 2:
			rough /= 6
			fjord = 0
		}
		e := displace(erng, a, b, edgeDepth(erng, baseDepth), rough)
		return addFjords(erng, e, fjord)
	}
	hSeed := func(i, j int) int64 { return cfg.Seed*1_000_003 + int64(i)*7919 + int64(j)*104729 + 1 }
	vSeed := func(i, j int) int64 { return cfg.Seed*1_000_003 + int64(i)*7919 + int64(j)*104729 + 2 }

	center := geom.Point{X: 0.5 * extent, Y: 0.5 * extent}
	rot := func(p geom.Point) geom.Point { return p.RotateAround(cfg.Rotation, center) }

	// The sliding window: the current row's bottom boundary (the previous
	// row's top, levels final) and corner rows j and j+1.
	bottomCorners := cornerRow(0)
	bottom := make([][]geom.Point, kx)
	for i := 0; i < kx; i++ {
		bottom[i] = genEdge(bottomCorners[i], bottomCorners[i+1], hSeed(i, 0), 0)
	}

	emitted := int32(0)
	for j := 0; j < ky && int(emitted) < cfg.Cells; j++ {
		topCorners := cornerRow(j + 1)
		top := make([][]geom.Point, kx)
		topLevel := make([]int, kx)
		for i := 0; i < kx; i++ {
			top[i] = genEdge(topCorners[i], topCorners[i+1], hSeed(i, j+1), 0)
		}
		verts := make([][]geom.Point, kx+1)
		vertLevel := make([]int, kx+1)
		for i := 0; i <= kx; i++ {
			verts[i] = genEdge(bottomCorners[i], topCorners[i], vSeed(i, j), 0)
		}

		buildCell := func(i int) geom.Ring {
			return geom.NewRing(assembleCell(bottom[i], verts[i+1], top[i], verts[i]))
		}

		// Row-local repair: tame the tameable edges of non-simple cells
		// and re-check the same-row neighbours sharing them. Bottom edges
		// are frozen — the previous row has already been emitted.
		pending := make([]bool, kx)
		for i := range pending {
			pending[i] = true
		}
		for round := 0; round < 4; round++ {
			any := false
			for i := 0; i < kx; i++ {
				if !pending[i] {
					continue
				}
				pending[i] = false
				if !buildCell(i).SelfIntersects() {
					continue
				}
				any = true
				if topLevel[i] < 2 {
					topLevel[i]++
					top[i] = genEdge(topCorners[i], topCorners[i+1], hSeed(i, j+1), topLevel[i])
				}
				for _, vi := range [2]int{i, i + 1} {
					if vertLevel[vi] < 2 {
						vertLevel[vi]++
						verts[vi] = genEdge(bottomCorners[vi], topCorners[vi], vSeed(vi, j), vertLevel[vi])
					}
				}
				pending[i] = true
				if i > 0 {
					pending[i-1] = true
				}
				if i < kx-1 {
					pending[i+1] = true
				}
			}
			if !any {
				break
			}
		}

		for i := 0; i < kx && int(emitted) < cfg.Cells; i++ {
			ring := buildCell(i)
			if ring.SelfIntersects() {
				// The frozen bottom edge is the remaining wild input: give
				// this cell a private gentle copy. The neighbour below keeps
				// the original — a seam in the tiling, counted, rare.
				st.Seams++
				privBottom := genEdge(bottomCorners[i], bottomCorners[i+1], hSeed(i, j), 2)
				ring = geom.NewRing(assembleCell(privBottom, verts[i+1], top[i], verts[i]))
				if ring.SelfIntersects() {
					// Last resort: the plain jittered quad is simple by the
					// jitter bound (corners move < half a cell).
					st.QuadFallbacks++
					ring = geom.NewRing([]geom.Point{
						bottomCorners[i], bottomCorners[i+1], topCorners[i+1], topCorners[i],
					})
				}
			}
			p := &geom.Polygon{Outer: ring}
			hrng := rand.New(rand.NewSource(int64(splitmix(uint64(cfg.Seed)*0xD6E8FEB86659FD93 + uint64(emitted)))))
			if hrng.Float64() < cfg.HoleFraction {
				if hole, ok := makeHole(hrng, p); ok {
					p.Holes = append(p.Holes, hole)
				}
			}
			if err := yield(emitted, p.Transform(rot)); err != nil {
				return st, err
			}
			emitted++
		}

		// Slide the window: this row's top is the next row's bottom, at
		// its repaired levels (final — later rows never regenerate it).
		bottomCorners = topCorners
		bottom = top
	}
	st.Objects = int(emitted)
	return st, nil
}

// StreamStats reports how StreamMap's row-local repair resolved: Seams
// counts cells that replaced their frozen bottom boundary with a
// private gentle copy (breaking the shared tiling along one edge),
// QuadFallbacks the cells that fell back to their plain jittered quad.
type StreamStats struct {
	Objects       int
	Seams         int
	QuadFallbacks int
}

// splitmix is the SplitMix64 finalizer — the per-position hash behind
// StreamMap's on-demand corner jitter and hole decisions.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// unitFloat maps a hash onto [0, 1).
func unitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }
