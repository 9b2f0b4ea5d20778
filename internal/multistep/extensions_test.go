package multistep

import (
	"math/rand"
	"testing"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
)

// TestStep1AlternativesAgree pins step 1, the R*-tree join, to the
// section 2.3 baseline: the response equals the nested-loops join over
// the exact geometry.
func TestStep1AlternativesAgree(t *testing.T) {
	rp, sp := smallSeries(t)
	cfg := DefaultConfig()
	got, _ := testJoin(t, NewRelation("R", rp, cfg), NewRelation("S", sp, cfg), cfg)
	assertSameResponse(t, "R*-tree join", got, NestedLoopsJoin(rp, sp))
}

// TestStep1CandidateCountsIdentical checks that the R*-tree join's
// candidates are exactly the intersecting MBR pairs, counted by nested
// loops.
func TestStep1CandidateCountsIdentical(t *testing.T) {
	rp, sp := smallSeries(t)
	cfg := DefaultConfig()
	r := NewRelation("R", rp, cfg)
	s := NewRelation("S", sp, cfg)
	_, st := testJoin(t, r, s, cfg)
	var mbrPairs int64
	for _, oa := range r.Objects {
		for _, ob := range s.Objects {
			if oa.Approx.MBR.Intersects(ob.Approx.MBR) {
				mbrPairs++
			}
		}
	}
	if mbrPairs == 0 || st.CandidatePairs != mbrPairs {
		t.Fatalf("R*-tree join found %d candidates, nested loops %d intersecting MBR pairs",
			st.CandidatePairs, mbrPairs)
	}
}

func TestJoinParallelMatchesSequential(t *testing.T) {
	rp, sp := smallSeries(t)
	for _, engine := range []Engine{EnginePlaneSweep, EngineTRStar} {
		cfg := DefaultConfig()
		cfg.Engine = engine
		r := NewRelation("R", rp, cfg)
		s := NewRelation("S", sp, cfg)
		want, wantSt := testJoin(t, r, s, cfg)
		for _, workers := range []int{1, 2, 7, 0} {
			got, st := testJoinWorkers(t, r, s, cfg, workers)
			assertSameResponse(t, engine.String(), got, want)
			if st.CandidatePairs != wantSt.CandidatePairs ||
				st.FilterHits != wantSt.FilterHits ||
				st.FilterFalseHits != wantSt.FilterFalseHits ||
				st.ExactTested != wantSt.ExactTested {
				t.Errorf("engine %v workers %d: stats diverge: %+v vs %+v",
					engine, workers, st, wantSt)
			}
		}
	}
}

func TestWindowQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(521))
	polys := data.GenerateMap(data.MapConfig{Cells: 150, TargetVerts: 56, HoleFraction: 0.15, Seed: 523})
	cfg := DefaultConfig()
	rel := NewRelation("R", polys, cfg)
	decided := int64(0)
	for trial := 0; trial < 120; trial++ {
		cx, cy := rng.Float64(), rng.Float64()
		ext := 0.005 + rng.Float64()*0.12
		w := geom.Rect{MinX: cx, MinY: cy, MaxX: cx + ext, MaxY: cy + ext}
		got, st := testWindow(t, rel, w, cfg)
		gotSet := map[int32]bool{}
		for _, id := range got {
			gotSet[id] = true
		}
		for i, p := range polys {
			want := polygonIntersectsRect(p, w)
			if gotSet[int32(i)] != want {
				t.Fatalf("trial %d: object %d: window query %v, truth %v (window %v)",
					trial, i, gotSet[int32(i)], want, w)
			}
		}
		decided += st.FilterHits + st.FilterFalseHits
	}
	if decided == 0 {
		t.Error("window filter never decided anything")
	}
}

// polygonIntersectsRect is the brute-force window ground truth.
func polygonIntersectsRect(p *geom.Polygon, w geom.Rect) bool {
	c := w.Corners()
	rect := geom.NewPolygon(c[:])
	return p.Intersects(rect)
}

func TestPointQuery(t *testing.T) {
	polys := data.GenerateMap(data.MapConfig{Cells: 100, TargetVerts: 40, Seed: 541})
	cfg := DefaultConfig()
	rel := NewRelation("R", polys, cfg)
	rng := rand.New(rand.NewSource(547))
	for trial := 0; trial < 150; trial++ {
		pt := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		got, _ := testPoint(t, rel, pt, cfg)
		want := 0
		for _, p := range polys {
			if p.Bounds().ContainsPoint(pt) && p.ContainsPoint(pt) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d: point query found %d, truth %d", trial, len(got), want)
		}
	}
}
