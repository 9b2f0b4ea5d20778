package trstar

import (
	"testing"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/ops"
)

// holeyMaps generates two relations of fractal-boundary map polygons, a
// third of them with holes, offset against each other so that pairs
// overlap, touch across cell borders and lie a few cells apart.
func holeyMaps(seed int64) (r, s []*geom.Polygon) {
	cfg := data.MapConfig{Cells: 36, TargetVerts: 28, HoleFraction: 0.35, Seed: seed}
	r = data.GenerateMap(cfg)
	cfg.Seed++
	s = data.GenerateMap(cfg)
	return r, s
}

// TestWithinDistanceAgainstGroundTruth cross-validates the within-eps
// traversal against the brute-force region distance on polygons with
// holes (an object inside another's hole is a positive distance apart).
// The thresholds stay a band away from the true distance: the traversal
// decides on squared gaps, the reference on math.Hypot, and the
// decomposition itself moves a few distances by up to 2e-6 (DESIGN.md).
func TestWithinDistanceAgainstGroundTruth(t *testing.T) {
	r, s := holeyMaps(211)
	var c ops.Counters
	within, beyond, holes := 0, 0, 0
	for _, p := range r {
		tp := NewFromPolygon(p, DefaultCapacity)
		for _, q := range s {
			tq := NewFromPolygon(q, DefaultCapacity)
			if len(p.Holes)+len(q.Holes) > 0 {
				holes++
			}
			d := p.DistToPolygon(q)
			band := 1e-5 + 0.01*d
			for _, eps := range []float64{d + band, 2*d + band, 1} {
				if !WithinDistance(tp, tq, eps, &c) {
					t.Fatalf("distance %.9g: not within %.9g", d, eps)
				}
				within++
			}
			for _, eps := range []float64{d - band, d / 2} {
				if d == 0 || eps < 0 {
					continue
				}
				if WithinDistance(tp, tq, eps, &c) {
					t.Fatalf("distance %.9g: within %.9g", d, eps)
				}
				beyond++
			}
			if got, want := WithinDistance(tp, tq, 0, &c), Intersects(tp, tq, &c); got != want {
				t.Fatalf("distance %.9g: WithinDistance(0) = %v, Intersects = %v", d, got, want)
			}
		}
	}
	if within < 1000 || beyond < 1000 || holes < 100 {
		t.Fatalf("workload unbalanced: %d within, %d beyond, %d pairs with holes", within, beyond, holes)
	}
}

// TestWithinDistanceCountsLikeIntersects pins the accounting contract of
// the ε = 0 traversal: the same node pairs expanded, the same trapezoid
// pairs tested, in the same order as Intersects — so the operation
// counters agree, not just the verdict.
func TestWithinDistanceCountsLikeIntersects(t *testing.T) {
	r, s := holeyMaps(223)
	for i, p := range r {
		tp, tq := NewFromPolygon(p, DefaultCapacity), NewFromPolygon(s[i], DefaultCapacity)
		var ci, cw ops.Counters
		Intersects(tp, tq, &ci)
		WithinDistance(tp, tq, 0, &cw)
		if ci != cw {
			t.Fatalf("pair %d: Intersects counted %+v, WithinDistance(0) %+v", i, ci, cw)
		}
	}
}

func TestInterObjectIsland(t *testing.T) {
	annulus := NewFromPolygon(geom.NewPolygon(sq(0, 0, 3), sq(0, 0, 2)), 3)
	island := NewFromPolygon(geom.NewPolygon(sq(0, 0, 1)), 3)
	var c ops.Counters
	if WithinDistance(annulus, island, 0.99, &c) {
		t.Error("the island is 1 away from the annulus across the hole")
	}
	if !WithinDistance(annulus, island, 1.01, &c) || !WithinDistance(island, annulus, 1.01, &c) {
		t.Error("the island is within 1.01 of the annulus")
	}
}

// TestExactTestsAllocFree is the TR*-tree twin of the step 2 and step 3
// allocation guards: a synchronized traversal, intersection or
// within-distance, runs once per candidate pair the filter leaves
// undecided and must not allocate.
func TestExactTestsAllocFree(t *testing.T) {
	r, s := holeyMaps(227)
	a, b := NewFromPolygon(r[0], DefaultCapacity), NewFromPolygon(s[0], DefaultCapacity)
	far := NewFromPolygon(s[20], DefaultCapacity)
	var c ops.Counters
	for name, run := range map[string]func(){
		"intersects": func() { Intersects(a, b, &c); Intersects(a, far, &c) },
		"within": func() {
			WithinDistance(a, b, 0.01, &c)
			WithinDistance(a, far, 0.01, &c)
			WithinDistance(a, far, 2, &c)
		},
	} {
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per run, want 0", name, allocs)
		}
	}
}

var sinkBool bool

// BenchmarkTRStarWithinDistance times the step 3 decision of the ε-join
// over the pairs that reach it: map polygons whose MBRs lie within eps
// (one cell) of each other, a mix of overlapping neighbours, pairs within
// eps decided deep in the trees, and near misses that exhaust them.
func BenchmarkTRStarWithinDistance(b *testing.B) {
	const eps = 1.0 / 6
	r, s := holeyMaps(229)
	var pairs [][2]*Tree
	for _, p := range r {
		tp := NewFromPolygon(p, DefaultCapacity)
		for _, q := range s {
			if p.Bounds().Dist(q.Bounds()) <= eps {
				pairs = append(pairs, [2]*Tree{tp, NewFromPolygon(q, DefaultCapacity)})
			}
		}
	}
	var c ops.Counters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i%len(pairs)]
		sinkBool = WithinDistance(pr[0], pr[1], eps, &c)
	}
}
