package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/decomp"
	"spatialjoin/internal/exact"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/ops"
	"spatialjoin/internal/trstar"
)

// measureWeights times the six geometric primitives of Table 6 on the
// host, returning seconds per operation. The paper measured them on an
// HP 720 workstation; the ratios, not the absolute values, drive all
// weighted-cost comparisons.
func measureWeights() ops.Weights {
	rng := rand.New(rand.NewSource(271))
	const n = 4096
	segs := make([]geom.Segment, n)
	rects := make([]geom.Rect, n)
	traps := make([]decomp.Trapezoid, n)
	pts := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		segs[i] = geom.Segment{
			A: geom.Point{X: rng.Float64(), Y: rng.Float64()},
			B: geom.Point{X: rng.Float64(), Y: rng.Float64()},
		}
		x, y := rng.Float64(), rng.Float64()
		rects[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*0.2, MaxY: y + rng.Float64()*0.2}
		x2 := x + 0.1
		traps[i] = decomp.Trapezoid{P: [4]geom.Point{
			{X: x, Y: y}, {X: x2, Y: y + rng.Float64()*0.05},
			{X: x2, Y: y + 0.1 + rng.Float64()*0.05}, {X: x, Y: y + 0.1},
		}}
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	var sink bool
	timeOp := func(f func(i int)) float64 {
		const reps = 200000
		start := time.Now()
		for i := 0; i < reps; i++ {
			f(i & (n - 1))
		}
		return time.Since(start).Seconds() / reps
	}
	w := ops.Weights{}
	w.EdgeIntersection = timeOp(func(i int) { sink = segs[i].Intersects(segs[(i+1)&(n-1)]) })
	w.EdgeLine = timeOp(func(i int) {
		// One step of the point-in-polygon crossing test.
		e := segs[i]
		p := pts[(i+1)&(n-1)]
		if (e.A.Y > p.Y) != (e.B.Y > p.Y) {
			xint := e.A.X + (p.Y-e.A.Y)*(e.B.X-e.A.X)/(e.B.Y-e.A.Y)
			sink = p.X < xint
		}
	})
	w.Position = timeOp(func(i int) {
		x := pts[i].X
		sink = segs[i].YAt(x) < segs[(i+1)&(n-1)].YAt(x)
	})
	w.EdgeRect = timeOp(func(i int) { sink = segs[i].IntersectsRect(rects[(i+1)&(n-1)]) })
	w.RectIntersection = timeOp(func(i int) { sink = rects[i].Intersects(rects[(i+1)&(n-1)]) })
	w.TrapIntersection = timeOp(func(i int) { sink = traps[i].Intersects(traps[(i+1)&(n-1)]) })
	_ = sink
	return w
}

// Table6 reports the paper's operation weights next to host-measured ones.
func Table6() *Table {
	host := measureWeights()
	paper := ops.PaperWeights()
	t := &Table{
		Title:  "Table 6 — weights of the geometric operations (µs)",
		Header: []string{"operation", "paper (HP 720)", "host-measured"},
	}
	rows := []struct {
		name         string
		paper, hostV float64
	}{
		{"edge intersection test", paper.EdgeIntersection, host.EdgeIntersection},
		{"edge-line intersection test", paper.EdgeLine, host.EdgeLine},
		{"position test", paper.Position, host.Position},
		{"edge-rectangle intersection test", paper.EdgeRect, host.EdgeRect},
		{"rectangle intersection test", paper.RectIntersection, host.RectIntersection},
		{"trapezoid intersection test", paper.TrapIntersection, host.TrapIntersection},
	}
	for _, r := range rows {
		t.AddRow(r.name, fmt.Sprintf("%.0f", r.paper*1e6), fmt.Sprintf("%.3f", r.hostV*1e6))
	}
	t.Comment = "Weighted costs below always use the paper's weights so shapes are comparable."
	return t
}

// remainingPairs returns the candidate pairs of a series that survive the
// geometric filter used in section 4.3: the 5-corner test for false hits
// and the MEC test for hits.
func remainingPairs(sd *SeriesData) []PairInfo {
	var out []PairInfo
	for _, p := range sd.Pairs {
		a, b := sd.SetsR[p.I], sd.SetsS[p.J]
		if !approx.ConservativeIntersects(approx.C5, a, b) {
			continue // identified false hit
		}
		if approx.ProgressiveIntersects(approx.MEC, a, b) {
			continue // identified hit
		}
		out = append(out, p)
	}
	return out
}

// Table7Result carries the measured numbers of Table 7 for assertions.
type Table7Result struct {
	Series    string
	Hits      int
	FalseHits int
	// Cost per pair in seconds (paper weights) per algorithm and class,
	// plus the total over all remaining pairs.
	CostPerHit      map[string]float64
	CostPerFalseHit map[string]float64
	Total           map[string]float64
}

// quadraticSampleCap bounds how many pairs the quadratic baseline actually
// executes per class; its per-pair cost is an average over the sample and
// the total is extrapolated. The paper itself calls the algorithm "out of
// question"; sampling keeps the experiment runnable on the BW relation
// (527-vertex objects make the full quadratic run quadratically painful).
const quadraticSampleCap = 120

// Table7 reproduces Table 7: the cost of the three exact intersection
// algorithms on the candidate pairs remaining after the geometric filter
// (5-C + MEC) for the Europe A and BW A series.
func Table7(e *Env) (*Table, []Table7Result) {
	w := ops.PaperWeights()
	t := &Table{
		Title: "Table 7 — cost of the exact intersection algorithms (paper weights)",
		Header: []string{"series", "algorithm", "#hits", "cost/hit ms", "#false hits",
			"cost/false ms", "total s"},
	}
	var results []Table7Result
	for _, name := range []string{"Europe A", "BW A"} {
		sd := e.SeriesByName(name)
		rem := remainingPairs(sd)
		res := Table7Result{
			Series:          name,
			CostPerHit:      map[string]float64{},
			CostPerFalseHit: map[string]float64{},
			Total:           map[string]float64{},
		}
		for _, p := range rem {
			if p.Hit {
				res.Hits++
			} else {
				res.FalseHits++
			}
		}

		algos := []struct {
			name   string
			sample int
			run    func(p PairInfo, c *ops.Counters)
		}{
			{"quadratic", quadraticSampleCap, func(p PairInfo, c *ops.Counters) {
				exact.QuadraticIntersects(exact.Prepare(sd.R[p.I]), exact.Prepare(sd.S[p.J]), c)
			}},
			{"plane-sweep", 0, func(p PairInfo, c *ops.Counters) {
				exact.PlaneSweepIntersects(exact.Prepare(sd.R[p.I]), exact.Prepare(sd.S[p.J]), true, c)
			}},
			{"TR*-tree", 0, func(p PairInfo, c *ops.Counters) {
				trstar.Intersects(e.Tree(sd, 'R', p.I, 3), e.Tree(sd, 'S', p.J, 3), c)
			}},
		}
		for _, algo := range algos {
			var hitCost, falseCost float64
			hitN, falseN := 0, 0
			for _, p := range rem {
				if algo.sample > 0 {
					if p.Hit && hitN >= algo.sample {
						continue
					}
					if !p.Hit && falseN >= algo.sample {
						continue
					}
				}
				var c ops.Counters
				algo.run(p, &c)
				cost := c.Cost(w)
				if p.Hit {
					hitCost += cost
					hitN++
				} else {
					falseCost += cost
					falseN++
				}
			}
			perHit, perFalse := 0.0, 0.0
			if hitN > 0 {
				perHit = hitCost / float64(hitN)
			}
			if falseN > 0 {
				perFalse = falseCost / float64(falseN)
			}
			total := perHit*float64(res.Hits) + perFalse*float64(res.FalseHits)
			res.CostPerHit[algo.name] = perHit
			res.CostPerFalseHit[algo.name] = perFalse
			res.Total[algo.name] = total
			t.AddRow(name, algo.name, fmt.Sprint(res.Hits), fmt.Sprintf("%.2f", perHit*1e3),
				fmt.Sprint(res.FalseHits), fmt.Sprintf("%.2f", perFalse*1e3),
				fmt.Sprintf("%.2f", total))
		}
		results = append(results, res)
	}
	t.Comment = "Paper shape: quadratic ≫ plane-sweep ≫ TR*-tree (≥ one order of magnitude each on BW A).\n" +
		"Quadratic per-pair costs are averaged over a sample of the remaining pairs (see quadraticSampleCap)."
	return t, results
}

// Figure16Bin is one x-bucket of the Figure 16 scatter.
type Figure16Bin struct {
	EdgesUpTo  int
	PlaneSweep float64 // average cost per pair, seconds
	TRStar     float64
	Pairs      int
}

// Figure16 reproduces Figure 16: the cost of deciding one BW A pair as a
// function of the total number of edges, for the plane sweep (with
// search-space restriction) and the TR*-tree.
func Figure16(e *Env) (*Table, []Figure16Bin) {
	w := ops.PaperWeights()
	sd := e.SeriesByName("BW A")
	rem := remainingPairs(sd)
	const nBins = 8
	maxEdges := 0
	type sample struct {
		edges  int
		ps, tr float64
	}
	var samples []sample
	for _, p := range rem {
		edges := sd.R[p.I].NumEdges() + sd.S[p.J].NumEdges()
		if edges > maxEdges {
			maxEdges = edges
		}
		var cps, ctr ops.Counters
		exact.PlaneSweepIntersects(exact.Prepare(sd.R[p.I]), exact.Prepare(sd.S[p.J]), true, &cps)
		trstar.Intersects(e.Tree(sd, 'R', p.I, 3), e.Tree(sd, 'S', p.J, 3), &ctr)
		samples = append(samples, sample{edges: edges, ps: cps.Cost(w), tr: ctr.Cost(w)})
	}
	bins := make([]Figure16Bin, nBins)
	for _, s := range samples {
		b := s.edges * nBins / (maxEdges + 1)
		bins[b].Pairs++
		bins[b].PlaneSweep += s.ps
		bins[b].TRStar += s.tr
		bins[b].EdgesUpTo = (b + 1) * (maxEdges + 1) / nBins
	}
	t := &Table{
		Title:  "Figure 16 — cost of intersecting a pair of polygons vs Σ edges (BW A)",
		Header: []string{"edges ≤", "pairs", "plane-sweep ms/pair", "TR*-tree ms/pair"},
	}
	for i := range bins {
		if bins[i].Pairs == 0 {
			continue
		}
		bins[i].PlaneSweep /= float64(bins[i].Pairs)
		bins[i].TRStar /= float64(bins[i].Pairs)
		t.AddRow(fmt.Sprint(bins[i].EdgesUpTo), fmt.Sprint(bins[i].Pairs),
			fmt.Sprintf("%.2f", bins[i].PlaneSweep*1e3), fmt.Sprintf("%.2f", bins[i].TRStar*1e3))
	}
	t.Comment = "Paper: plane-sweep cost grows strongly with the edge count; TR*-tree cost barely depends on it."
	return t, bins
}

// Figure17Row is one node capacity of the Figure 17 comparison.
type Figure17Row struct {
	M         int
	RectTests int64
	TrapTests int64
}

// Figure17 reproduces Figure 17: the number of rectangle and trapezoid
// intersection tests of the TR*-tree join over the BW A remaining pairs
// for maximum node capacities 3, 4 and 5.
func Figure17(e *Env) (*Table, []Figure17Row) {
	sd := e.SeriesByName("BW A")
	rem := remainingPairs(sd)
	t := &Table{
		Title:  "Figure 17 — TR*-tree performance for different maximum node capacities (BW A)",
		Header: []string{"M", "#rectangle tests", "#trapezoid tests"},
	}
	var rows []Figure17Row
	for _, m := range []int{3, 4, 5} {
		var c ops.Counters
		for _, p := range rem {
			trstar.Intersects(e.Tree(sd, 'R', p.I, m), e.Tree(sd, 'S', p.J, m), &c)
		}
		rows = append(rows, Figure17Row{M: m, RectTests: c.RectIntersection, TrapTests: c.TrapIntersection})
		t.AddRow(fmt.Sprint(m), fmt.Sprint(c.RectIntersection), fmt.Sprint(c.TrapIntersection))
	}
	t.Comment = "Paper: both counts are minimal for M = 3."
	return t, rows
}
