package plan

import (
	"math"
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
)

// TestProbWithinMonteCarlo checks the exact piecewise-linear integral
// P(|X−Y| ≤ t) against brute-force sampling for a spread of interval
// configurations, including degenerate (point) intervals.
func TestProbWithinMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ a1, a2, b1, b2, t float64 }{
		{0, 1, 0, 1, 0.25},
		{0, 1, 2, 3, 0.5},
		{0, 1, 2, 3, 1.5},
		{0, 4, 1, 2, 0.3},
		{-1, 1, -3, 3, 0.1},
		{0, 1, 0.5, 0.5, 0.2}, // degenerate B
		{0.5, 0.5, 0, 1, 0.2}, // degenerate A
		{2, 2, 2.1, 2.1, 0.2}, // both degenerate, within t
		{2, 2, 5, 5, 0.2},     // both degenerate, beyond t
		{0, 1, 0, 1, 0},       // zero threshold
	}
	const samples = 200000
	for _, c := range cases {
		got := probWithin(c.a1, c.a2, c.b1, c.b2, c.t)
		hits := 0
		for i := 0; i < samples; i++ {
			x := c.a1 + rng.Float64()*(c.a2-c.a1)
			y := c.b1 + rng.Float64()*(c.b2-c.b1)
			if math.Abs(x-y) <= c.t {
				hits++
			}
		}
		want := float64(hits) / samples
		if math.Abs(got-want) > 0.01 {
			t.Errorf("probWithin(%v,%v,%v,%v,t=%v) = %v, Monte Carlo says %v",
				c.a1, c.a2, c.b1, c.b2, c.t, got, want)
		}
	}
}

func uniformStats(n int, seed int64, w, h float64) *Stats {
	rng := rand.New(rand.NewSource(seed))
	rects := make([]geom.Rect, n)
	for i := range rects {
		cx, cy := rng.Float64(), rng.Float64()
		rects[i] = geom.Rect{MinX: cx - w/2, MinY: cy - h/2, MaxX: cx + w/2, MaxY: cy + h/2}
	}
	return ComputeStats(n, func(i int) geom.Rect { return rects[i] }, func(int) int { return 48 })
}

// TestEstimateCandidatesUniform pins the estimator against the
// closed-form expectation for uniform data: for n×m boxes of extent w
// in the unit square, E[pairs] ≈ n·m·(2w)·(2h) (Minkowski area).
func TestEstimateCandidatesUniform(t *testing.T) {
	r := uniformStats(500, 1, 0.02, 0.02)
	s := uniformStats(400, 2, 0.02, 0.02)
	got := estimateCandidates(r, s, PredIntersects, 0, DefaultWeights())
	want := 500.0 * 400.0 * 0.04 * 0.04 // ≈ 320
	if got < want/2 || got > want*2 {
		t.Fatalf("uniform estimate = %.1f, closed form ≈ %.1f (want within 2×)", got, want)
	}
	// Within-distance must predict strictly more candidates.
	within := estimateCandidates(r, s, PredWithin, 0.05, DefaultWeights())
	if within <= got {
		t.Fatalf("within(ε=0.05) estimate %.1f not greater than intersects estimate %.1f", within, got)
	}
	// Contains candidates pass the nesting pretest: far fewer.
	contains := estimateCandidates(r, s, PredContains, 0, DefaultWeights())
	if contains >= got {
		t.Fatalf("contains estimate %.1f not below intersects estimate %.1f", contains, got)
	}
}

// TestEstimateCandidatesSkew: clustering the same objects into a corner
// must raise the predicted candidate count (density drives selectivity).
func TestEstimateCandidatesSkew(t *testing.T) {
	uni := uniformStats(500, 3, 0.02, 0.02)
	rng := rand.New(rand.NewSource(4))
	rects := make([]geom.Rect, 500)
	for i := range rects {
		cx, cy := rng.Float64()*0.1, rng.Float64()*0.1
		rects[i] = geom.Rect{MinX: cx - 0.01, MinY: cy - 0.01, MaxX: cx + 0.01, MaxY: cy + 0.01}
	}
	skew := ComputeStats(500, func(i int) geom.Rect { return rects[i] }, func(int) int { return 10 })
	w := DefaultWeights()
	if eu, es := estimateCandidates(uni, uni, PredIntersects, 0, w), estimateCandidates(skew, skew, PredIntersects, 0, w); es <= eu {
		t.Fatalf("skewed self-join estimate %.1f not above uniform %.1f", es, eu)
	}
}

func TestComputeStats(t *testing.T) {
	rects := []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 2, MaxY: 1},
		{MinX: 4, MinY: 3, MaxX: 6, MaxY: 7},
	}
	verts := []int{10, 30}
	s := ComputeStats(2, func(i int) geom.Rect { return rects[i] }, func(i int) int { return verts[i] })
	if s.Objects != 2 || s.MeanVerts != 20 || s.MeanW != 2 || s.MeanH != 2.5 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MBR != (geom.Rect{MinX: 0, MinY: 0, MaxX: 6, MaxY: 7}) {
		t.Fatalf("MBR = %+v", s.MBR)
	}
	var total float64
	for _, v := range s.Grid {
		total += v
	}
	if total != 2 {
		t.Fatalf("histogram mass = %v, want 2", total)
	}
	// Centers (1, 0.5) and (5, 5) over the data space [0,6]×[0,7] land in
	// cells (2, 1) and (13, 11), row-major with x fastest.
	if s.Grid[2+GridDim*1] != 1 || s.Grid[13+GridDim*11] != 1 {
		t.Fatalf("centers binned into the wrong cells: %v", s.Grid)
	}
	empty := ComputeStats(0, nil, nil)
	if empty.Objects != 0 || empty.MBR != (geom.Rect{}) {
		t.Fatalf("empty stats = %+v", empty)
	}
}

// TestChooseRules is the rule table's open column: an open dimension
// takes the first admissible engine or filter setting, and MaxProcs
// workers — at every vertex count, since no rule reads one.
// TestChooseRespectsPins covers the pinned column.
func TestChooseRules(t *testing.T) {
	all := []Engine{EngineTRStar, EnginePlaneSweep, EngineQuadratic}
	cases := []struct {
		name   string
		req    Request
		engine Engine
		filter bool
		procs  int
	}{
		{"open", Request{Engines: all, Filters: []bool{true, false}, MaxProcs: 4}, EngineTRStar, true, 4},
		{"defaults", Request{MaxProcs: 2}, EngineTRStar, true, 2},
		{"no object trees", Request{Engines: all[1:], MaxProcs: 2}, EnginePlaneSweep, true, 2},
		{"no approximations", Request{Filters: []bool{false}, MaxProcs: 2}, EngineTRStar, false, 2},
		{"worker list left open", Request{Workers: []int{1, 2, 4, 8}, MaxProcs: 2}, EngineTRStar, true, 2},
		{"no MaxProcs", Request{}, EngineTRStar, true, 1},
	}
	for _, verts := range []int{6, 48, 3000} {
		r := ComputeStats(1, func(int) geom.Rect { return geom.Rect{MaxX: 1, MaxY: 1} }, func(int) int { return verts })
		for _, tc := range cases {
			for _, pred := range []Pred{PredIntersects, PredContains, PredWithin} {
				c := Choose(r, r, DefaultWeights(), Request{
					Pred: pred, Engines: tc.req.Engines, Filters: tc.req.Filters,
					Workers: tc.req.Workers, MaxProcs: tc.req.MaxProcs,
				})
				if c.Engine != tc.engine || c.UseFilter != tc.filter || c.Workers != tc.procs {
					t.Errorf("%s, %d vertices, pred %d: chose %v/filter %v/%d workers, want %v/filter %v/%d workers",
						tc.name, verts, pred, c.Engine, c.UseFilter, c.Workers, tc.engine, tc.filter, tc.procs)
				}
			}
		}
	}
}

// TestChooseOrdersEngines: the open engine dimension follows the
// admissible list's preference order — the TR*-tree, then plane sweep,
// then quadratic, the ordering every committed BENCH baseline measured
// — and a free choice takes the TR*-tree with the filter on.
func TestChooseOrdersEngines(t *testing.T) {
	r := uniformStats(1000, 5, 0.03, 0.03)
	s := uniformStats(1000, 6, 0.03, 0.03)
	w := DefaultWeights()
	order := []Engine{EngineTRStar, EnginePlaneSweep, EngineQuadratic}
	for i, want := range order {
		c := Choose(r, s, w, Request{
			Pred: PredIntersects, Engines: order[i:], Filters: []bool{true},
			Workers: []int{1}, MaxProcs: 1, Collect: true,
		})
		if c.Engine != want {
			t.Fatalf("admissible engines %v: chose %v, want %v", order[i:], c.Engine, want)
		}
	}
	free := Choose(r, s, w, Request{Pred: PredIntersects, MaxProcs: 1, Collect: true})
	if free.Engine != EngineTRStar || !free.UseFilter {
		t.Fatalf("free choice chose %v filter=%v, want trstar with filter", free.Engine, free.UseFilter)
	}
}

// TestChoosePredictions: the estimates ride along with the rules — the
// filter removes the identified share of the candidates from step 3.
func TestChoosePredictions(t *testing.T) {
	r := uniformStats(2000, 8, 0.05, 0.05)
	w := DefaultWeights()
	on := Choose(r, r, w, Request{Pred: PredIntersects})
	off := Choose(r, r, w, Request{Pred: PredIntersects, Filters: []bool{false}})
	if on.PredCandidates <= 0 || on.PredCandidates != estimateCandidates(r, r, PredIntersects, 0, w) {
		t.Fatalf("predicted candidates %v, estimator says %v", on.PredCandidates, estimateCandidates(r, r, PredIntersects, 0, w))
	}
	if off.PredExactTested != off.PredCandidates || on.PredExactTested != on.PredCandidates*(1-w.IdentPrior[PredIntersects]) {
		t.Fatalf("predicted exact tests %v with the filter, %v without, of %v candidates",
			on.PredExactTested, off.PredExactTested, on.PredCandidates)
	}
}

// TestChooseRespectsPins: one-element dimension lists are obeyed.
func TestChooseRespectsPins(t *testing.T) {
	r := uniformStats(300, 7, 0.02, 0.02)
	c := Choose(r, r, DefaultWeights(), Request{
		Pred: PredIntersects, Engines: []Engine{EngineQuadratic},
		Filters: []bool{false}, Workers: []int{3}, MaxProcs: 8,
	})
	if c.Engine != EngineQuadratic || c.UseFilter || c.Workers != 3 {
		t.Fatalf("pinned choice = %+v", c)
	}
}

// TestChooseWorkers: an open worker count runs MaxProcs workers, so an
// 8-way host runs more than one and a single-proc host runs one.
func TestChooseWorkers(t *testing.T) {
	r := uniformStats(2000, 8, 0.05, 0.05)
	w := DefaultWeights()
	req := Request{Pred: PredIntersects, Workers: []int{1, 2, 4, 8}, MaxProcs: 8, Collect: true}
	if c := Choose(r, r, w, req); c.Workers != 8 {
		t.Fatalf("8-way host chose %d workers, want 8", c.Workers)
	}
	req.MaxProcs = 1
	if c := Choose(r, r, w, req); c.Workers != 1 {
		t.Fatalf("single-proc host chose %d workers", c.Workers)
	}
}
