package multistep

import (
	"context"
	"math"
	"testing"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
)

// NestedLoopsJoin is the section 2.3 baseline: the full Cartesian product
// decided on exact geometry with the quadratic test.
func NestedLoopsJoin(r, s []*geom.Polygon) []Pair {
	return nestedLoops(r, s, (*geom.Polygon).Intersects)
}

// NestedLoopsContains is the brute-force inclusion join.
func NestedLoopsContains(r, s []*geom.Polygon) []Pair {
	return nestedLoops(r, s, (*geom.Polygon).ContainsPolygon)
}

// NestedLoopsWithin is the brute-force oracle of the ε-join: all pairs
// within eps by the exact region distance (geom.Polygon.DistToPolygon).
func NestedLoopsWithin(r, s []*geom.Polygon, eps float64) []Pair {
	return nestedLoops(r, s, func(a, b *geom.Polygon) bool { return a.DistToPolygon(b) <= eps })
}

// nestedLoops pairs every a of r with every b of s for which pred holds,
// in (A, B) order.
func nestedLoops(r, s []*geom.Polygon, pred func(a, b *geom.Polygon) bool) []Pair {
	var out []Pair
	for i, a := range r {
		for j, b := range s {
			if pred(a, b) {
				out = append(out, Pair{A: int32(i), B: int32(j)})
			}
		}
	}
	return out
}

// withinSeries is a smaller workload than smallSeries: the ε-join oracle
// is quadratic in pairs with a full distance computation each.
func withinSeries(t *testing.T) ([]*geom.Polygon, []*geom.Polygon) {
	t.Helper()
	r := data.GenerateMap(data.MapConfig{Cells: 48, TargetVerts: 36, HoleFraction: 0.1, Seed: 433})
	s := data.StrategyA(r, 0.45)
	return r, s
}

// TestWithinDistanceMatchesBruteForce is the ε-join's correctness
// theorem: for every exact engine, with and without the geometric
// filter, and for ε ∈ {0, small, large}, the unified Join under
// WithinDistance computes exactly the brute-force response set by exact
// region distance.
func TestWithinDistanceMatchesBruteForce(t *testing.T) {
	rp, sp := withinSeries(t)
	// The small ε is on the order of a cell diameter fraction; the large
	// one makes nearly everything qualify — both regimes plus the ε = 0
	// degeneration to the intersection join are pinned.
	for _, eps := range []float64{0, 0.008, 0.15} {
		want := NestedLoopsWithin(rp, sp, eps)
		if len(want) == 0 {
			t.Fatalf("eps=%g: oracle found nothing; test is vacuous", eps)
		}
		for _, engine := range []Engine{EngineQuadratic, EnginePlaneSweep, EngineTRStar} {
			for _, useFilter := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.Engine = engine
				cfg.UseFilter = useFilter
				r := NewRelation("R", rp, cfg)
				s := NewRelation("S", sp, cfg)
				got, st, err := Join(context.Background(), r, s,
					WithPredicate(WithinDistance(eps)))
				if err != nil {
					t.Fatal(err)
				}
				name := engine.String()
				if useFilter {
					name += "+filter"
				}
				assertSameResponse(t, name, got, want)
				if st.CandidatePairs < int64(len(want)) {
					t.Errorf("eps=%g %s: candidate set smaller than the response set", eps, name)
				}
			}
		}
	}
}

// TestWithinZeroEqualsIntersects pins the degeneration: the ε-join at
// ε = 0 answers exactly the intersection join on every engine.
func TestWithinZeroEqualsIntersects(t *testing.T) {
	rp, sp := withinSeries(t)
	for _, engine := range []Engine{EngineQuadratic, EnginePlaneSweep, EngineTRStar} {
		cfg := DefaultConfig()
		cfg.Engine = engine
		r := NewRelation("R", rp, cfg)
		s := NewRelation("S", sp, cfg)
		inter, _, err := Join(context.Background(), r, s)
		if err != nil {
			t.Fatal(err)
		}
		within, _, err := Join(context.Background(), r, s, WithPredicate(WithinDistance(0)))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResponse(t, engine.String()+" eps=0", within, inter)
	}
}

// TestWithinFilterSoundness checks the distance filter classifications
// directly against exact distances: a FalseHit must have distance > ε, a
// Hit must have distance ≤ ε.
func TestWithinFilterSoundness(t *testing.T) {
	rp, sp := withinSeries(t)
	cfg := DefaultConfig()
	r := NewRelation("R", rp, cfg)
	s := NewRelation("S", sp, cfg)
	const eps = 0.01
	decided := 0
	for _, oa := range r.Objects {
		for _, ob := range s.Objects {
			if oa.Approx.MBR.Dist(ob.Approx.MBR) > 2*eps {
				continue // keep the oracle work bounded
			}
			truth := oa.Poly.DistToPolygon(ob.Poly)
			switch WithinDistance(eps).classify(cfg.Filter, oa, ob) {
			case approx.Hit:
				decided++
				if truth > eps {
					t.Fatalf("UNSOUND hit: objects %d,%d at distance %g > ε=%g", oa.ID, ob.ID, truth, eps)
				}
			case approx.FalseHit:
				decided++
				if truth <= eps {
					t.Fatalf("UNSOUND false hit: objects %d,%d at distance %g ≤ ε=%g", oa.ID, ob.ID, truth, eps)
				}
			}
		}
	}
	if decided == 0 {
		t.Fatal("the ε filter never decided anything")
	}
}

// TestWithinRangeQuery validates the ε-range Query (point and window
// targets under WithinDistance) against brute-force distances.
func TestWithinRangeQuery(t *testing.T) {
	polys := data.GenerateMap(data.MapConfig{Cells: 90, TargetVerts: 32, Seed: 457})
	cfg := DefaultConfig()
	rel := NewRelation("R", polys, cfg)
	pts := []geom.Point{{X: 0.5, Y: 0.5}, {X: 0.1, Y: 0.85}, {X: -0.2, Y: 0.4}}
	for _, eps := range []float64{0, 0.03, 0.4} {
		for _, p := range pts {
			res, err := Query(context.Background(), rel,
				ForPoint(p), WithPredicate(WithinDistance(eps)))
			if err != nil {
				t.Fatal(err)
			}
			got := map[int32]bool{}
			for _, id := range res.IDs {
				got[id] = true
			}
			for i, poly := range polys {
				want := poly.DistToPoint(p) <= eps
				if got[int32(i)] != want {
					t.Fatalf("eps=%g point %v object %d: query %v, truth %v",
						eps, p, i, got[int32(i)], want)
				}
			}
		}
		w := geom.Rect{MinX: 0.4, MinY: 0.42, MaxX: 0.52, MaxY: 0.5}
		res, err := Query(context.Background(), rel,
			ForWindow(w), WithPredicate(WithinDistance(eps)))
		if err != nil {
			t.Fatal(err)
		}
		got := map[int32]bool{}
		for _, id := range res.IDs {
			got[id] = true
		}
		for i, poly := range polys {
			want := poly.DistToRect(w) <= eps
			if got[int32(i)] != want {
				t.Fatalf("eps=%g window object %d: query %v, truth %v", eps, i, got[int32(i)], want)
			}
		}
	}
}

// TestDistToPolygonKernel sanity-checks the oracle kernel itself on
// hand-computable configurations.
func TestDistToPolygonKernel(t *testing.T) {
	unit := geom.NewPolygon([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}})
	if d := unit.DistToPolygon(unit); d != 0 {
		t.Errorf("self distance = %g", d)
	}
	right := geom.NewPolygon([]geom.Point{{X: 3, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 1}, {X: 3, Y: 1}})
	if d := unit.DistToPolygon(right); math.Abs(d-2) > 1e-12 {
		t.Errorf("axis gap distance = %g, want 2", d)
	}
	diag := geom.NewPolygon([]geom.Point{{X: 4, Y: 4}, {X: 5, Y: 4}, {X: 5, Y: 5}, {X: 4, Y: 5}})
	if d := unit.DistToPolygon(diag); math.Abs(d-3*math.Sqrt2) > 1e-12 {
		t.Errorf("diagonal distance = %g, want %g", d, 3*math.Sqrt2)
	}
	inner := geom.NewPolygon([]geom.Point{{X: 0.4, Y: 0.4}, {X: 0.6, Y: 0.4}, {X: 0.6, Y: 0.6}, {X: 0.4, Y: 0.6}})
	if d := unit.DistToPolygon(inner); d != 0 {
		t.Errorf("contained distance = %g", d)
	}
	// A polygon inside the hole of an annulus is separated by the rim gap.
	annulus := geom.NewPolygon(
		[]geom.Point{{X: -2, Y: -2}, {X: 3, Y: -2}, {X: 3, Y: 3}, {X: -2, Y: 3}},
		[]geom.Point{{X: -1, Y: -1}, {X: 2, Y: -1}, {X: 2, Y: 2}, {X: -1, Y: 2}},
	)
	if d := annulus.DistToPolygon(unit); math.Abs(d-1) > 1e-12 {
		t.Errorf("hole distance = %g, want 1", d)
	}
	if d := unit.DistToRect(geom.Rect{MinX: 2, MinY: 1, MaxX: 3, MaxY: 2}); math.Abs(d-1) > 1e-12 {
		t.Errorf("rect distance = %g, want 1", d)
	}
}

// TestDistanceBoundMustBeFinite: a distance bound that is negative, NaN
// or infinite is refused by the parser and by every entry point that
// validates a predicate — NaN compares false with everything, so it
// would slip past a plain "eps < 0" check.
func TestDistanceBoundMustBeFinite(t *testing.T) {
	polys := data.GenerateMap(data.MapConfig{Cells: 9, TargetVerts: 12, Seed: 3})
	rel := NewRelation("R", polys, DefaultConfig())
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -math.SmallestNonzeroFloat64} {
		if _, err := ParsePredicate("within", eps); err == nil {
			t.Errorf("ParsePredicate(within, %v) accepted", eps)
		}
		pred := WithinDistance(eps)
		if err := pred.Validate(); err == nil {
			t.Errorf("WithinDistance(%v).Validate() accepted", eps)
		}
		if _, _, err := Join(context.Background(), rel, rel, WithPredicate(pred)); err == nil {
			t.Errorf("Join under WithinDistance(%v) ran", eps)
		}
		if _, err := Query(context.Background(), rel, ForPoint(geom.Point{X: 0.5, Y: 0.5}), WithPredicate(pred)); err == nil {
			t.Errorf("Query under WithinDistance(%v) ran", eps)
		}
	}
	for _, eps := range []float64{0, math.SmallestNonzeroFloat64, math.MaxFloat64} {
		if _, err := ParsePredicate("within", eps); err != nil {
			t.Errorf("ParsePredicate(within, %v): %v", eps, err)
		}
	}
	// Other predicates ignore the bound.
	if _, err := ParsePredicate("contains", math.NaN()); err != nil {
		t.Errorf("ParsePredicate(contains, NaN): %v", err)
	}
}
