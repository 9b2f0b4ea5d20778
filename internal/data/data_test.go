package data

import (
	"fmt"
	"math"
	"testing"

	"spatialjoin/internal/geom"
)

func TestGenerateMapDeterministic(t *testing.T) {
	a := GenerateMap(MapConfig{Cells: 50, TargetVerts: 40, Seed: 1})
	b := GenerateMap(MapConfig{Cells: 50, TargetVerts: 40, Seed: 1})
	if len(a) != len(b) {
		t.Fatal("same seed must give same relation size")
	}
	for i := range a {
		if a[i].NumVertices() != b[i].NumVertices() {
			t.Fatal("same seed must give identical polygons")
		}
		if a[i].Outer[0] != b[i].Outer[0] {
			t.Fatal("same seed must give identical coordinates")
		}
	}
	c := GenerateMap(MapConfig{Cells: 50, TargetVerts: 40, Seed: 2})
	if a[0].Outer[0] == c[0].Outer[0] {
		t.Error("different seeds must differ")
	}
}

func TestGenerateMapCounts(t *testing.T) {
	for _, n := range []int{1, 10, 374, 810} {
		rel := GenerateMap(MapConfig{Cells: n, TargetVerts: 32, Seed: 7})
		if len(rel) != n {
			t.Errorf("Cells=%d: got %d polygons", n, len(rel))
		}
	}
	if GenerateMap(MapConfig{Cells: 0}) != nil {
		t.Error("zero cells must give nil")
	}
}

func TestGenerateMapVertexTarget(t *testing.T) {
	for _, target := range []int{32, 84, 256} {
		rel := GenerateMap(MapConfig{Cells: 100, TargetVerts: target, Seed: 11})
		st := Stats(rel)
		if st.Avg < float64(target)*0.6 || st.Avg > float64(target)*1.7 {
			t.Errorf("target %d: average vertices %.1f too far off", target, st.Avg)
		}
		if st.Min < 3 {
			t.Errorf("target %d: polygon with %d vertices", target, st.Min)
		}
		if st.Max <= st.Min {
			t.Errorf("target %d: no vertex-count spread (min %d, max %d)", target, st.Min, st.Max)
		}
	}
}

func TestGeneratedPolygonsAreValid(t *testing.T) {
	cases := []struct {
		name     string
		cfg      MapConfig
		seamless bool // the paper's maps: no seam, no quad fallback
	}{
		{"holey", MapConfig{Cells: 120, TargetVerts: 84, HoleFraction: 0.5, Seed: 13}, false},
		{"Europe", EuropeConfig(), true},
		{"BW", BWConfig(), true},
		{"lattice map", MapConfig{Cells: 80, TargetVerts: 48, HoleFraction: 0.1, Seed: 211}, false},
		{"lattice self", MapConfig{Cells: 50, TargetVerts: 32, HoleFraction: 0.2, Seed: 229}, false},
		{"SF 0.01 R", MapConfig{Cells: 1300, TargetVerts: 28, HoleFraction: 0.06, Extent: 0.1, Seed: 73520100}, false},
	}
	for _, c := range cases {
		holes := 0
		st, err := StreamMap(c.cfg, func(id int32, p *geom.Polygon) error {
			if err := p.ValidateSimple(); err != nil {
				return fmt.Errorf("polygon %d invalid: %w", id, err)
			}
			if len(p.Holes) > 0 {
				holes++
			}
			if p.Area() <= 0 {
				return fmt.Errorf("polygon %d has non-positive area", id)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if holes == 0 {
			t.Errorf("%s: with HoleFraction %g some polygons must have holes", c.name, c.cfg.HoleFraction)
		}
		if c.seamless && (st.Seams != 0 || st.QuadFallbacks != 0) {
			t.Errorf("%s: %d seams, %d quad fallbacks; want none", c.name, st.Seams, st.QuadFallbacks)
		}
	}
}

func TestTilingDoesNotOverlap(t *testing.T) {
	// Adjacent cells share boundaries exactly: interiors must be disjoint,
	// so the sum of areas must equal the area of the union (≈ the hull of
	// the map). A cheap sufficient check: sample points and count covering
	// cells — never more than one (up to boundary tolerance).
	rel := GenerateMap(MapConfig{Cells: 64, TargetVerts: 48, Seed: 17})
	for trial := 0; trial < 300; trial++ {
		pt := geom.Point{
			X: 0.1 + 0.8*float64(trial%17)/17 + 0.01*float64(trial%7),
			Y: 0.1 + 0.8*float64(trial%19)/19 + 0.013*float64(trial%5),
		}
		cover := 0
		for _, p := range rel {
			if p.Bounds().ContainsPoint(pt) && p.ContainsPoint(pt) && distToBoundary(p, pt) > 1e-9 {
				cover++
			}
		}
		if cover > 1 {
			t.Fatalf("point %v covered by %d cells; tiling overlaps", pt, cover)
		}
	}
}

func distToBoundary(p *geom.Polygon, pt geom.Point) float64 {
	var edges []geom.Segment
	edges = p.Edges(edges)
	d := math.Inf(1)
	for _, e := range edges {
		if dd := e.DistToPoint(pt); dd < d {
			d = dd
		}
	}
	return d
}

func TestNormalizedFalseAreaRegime(t *testing.T) {
	// Table 1 regime: the average normalized MBR false area of real
	// cartography data is ≈ 0.9–1.0. The generator must reproduce at
	// least fa ≥ 0.5 on average, or the filter experiments lose their
	// discriminative power.
	rel := GenerateMap(EuropeConfig())
	var sum float64
	for _, p := range rel {
		obj := p.Area()
		mbr := p.Bounds().Area()
		sum += (mbr - obj) / obj
	}
	avg := sum / float64(len(rel))
	if avg < 0.5 {
		t.Errorf("average normalized false area %.2f too small for Table 1's regime", avg)
	}
	if avg > 2.0 {
		t.Errorf("average normalized false area %.2f implausibly large", avg)
	}
}

func TestStrategyA(t *testing.T) {
	rel := GenerateMap(MapConfig{Cells: 60, TargetVerts: 32, Seed: 23})
	shifted := StrategyA(rel, 0.45)
	if len(shifted) != len(rel) {
		t.Fatal("strategy A must preserve cardinality")
	}
	for i := range rel {
		if math.Abs(shifted[i].Area()-rel[i].Area()) > 1e-9 {
			t.Fatal("strategy A must preserve areas")
		}
		if shifted[i].Bounds() == rel[i].Bounds() {
			t.Fatal("strategy A must move objects")
		}
	}
	if StrategyA(nil, 0.45) != nil {
		t.Error("empty relation must give nil")
	}
}

func TestStrategyB(t *testing.T) {
	rel := GenerateMap(MapConfig{Cells: 60, TargetVerts: 32, Seed: 29})
	b := StrategyB(rel, 99)
	if len(b) != len(rel) {
		t.Fatal("strategy B must preserve cardinality")
	}
	var sum float64
	for i, p := range b {
		sum += p.Area()
		bb := p.Bounds()
		if bb.MinX < -1e-9 || bb.MinY < -1e-9 || bb.MaxX > 1+1e-9 || bb.MaxY > 1+1e-9 {
			t.Errorf("object %d leaves the unit data space: %v", i, bb)
		}
		if err := p.ValidateSimple(); err != nil {
			t.Errorf("object %d invalid after strategy B: %v", i, err)
		}
	}
	if math.Abs(sum-1) > 0.05 {
		t.Errorf("strategy B object areas sum to %.3f, want ≈ 1 (data-space area)", sum)
	}
	if StrategyB(nil, 1) != nil {
		t.Error("empty relation must give nil")
	}
}

func TestSeriesConstructors(t *testing.T) {
	for _, s := range []Series{europeA(), bwA()} {
		if len(s.R) == 0 || len(s.S) == 0 {
			t.Fatalf("%s: empty side", s.Name)
		}
		if len(s.R) != len(s.S) {
			t.Fatalf("%s: asymmetric sides", s.Name)
		}
	}
}

func TestStats(t *testing.T) {
	rel := GenerateMap(MapConfig{Cells: 25, TargetVerts: 40, HoleFraction: 1, Seed: 31})
	st := Stats(rel)
	if st.Objects != 25 {
		t.Errorf("Objects = %d", st.Objects)
	}
	if st.Min > st.Max || st.Avg <= 0 {
		t.Error("stats inconsistent")
	}
	empty := Stats(nil)
	if empty.Objects != 0 || empty.Min != 0 {
		t.Error("empty stats malformed")
	}
}
