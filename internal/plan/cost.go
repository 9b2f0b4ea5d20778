package plan

import "math"

// Engine mirrors the multistep exact-engine constants (the planner must
// not import multistep). The numeric values match multistep.Engine.
type Engine int

// The three exact-geometry engines of the paper's step 3.
const (
	EngineQuadratic Engine = iota
	EnginePlaneSweep
	EngineTRStar
)

func (e Engine) String() string {
	switch e {
	case EngineQuadratic:
		return "quadratic"
	case EnginePlaneSweep:
		return "planesweep"
	case EngineTRStar:
		return "trstar"
	}
	return "unknown"
}

// Weights are the calibrated cost coefficients, all in nanoseconds. The
// defaults come from the PR 6 engine × predicate grid (CHANGES.md; 1200
// objects/relation, ~48 vertices/object, filter on, GOMAXPROCS=1): the
// measured ns-per-candidate figures are decomposed into traversal +
// filter + (1 − ident) · exact using the suite's observed ~0.85
// identification rate for intersects and ~0.7 for within. Absolute
// accuracy does not matter — plan choice only needs the *ordering* of
// predicted costs to match the ordering of real runtimes, and the 1.5×
// regression grid in plan_test pins exactly that.
type Weights struct {
	// TraversalNsPerCand is step 1 work per candidate pair (tree
	// traversal, dedup bitsets, batching).
	TraversalNsPerCand float64
	// TraversalParallelFrac is the fraction of traversal work that the
	// parallel tree partitioning actually spreads across workers.
	TraversalParallelFrac float64
	// PageNs is the cost per tree page touched during traversal.
	PageNs float64
	// FilterNsPerCand is step 2 (conservative + progressive
	// approximation tests) per candidate.
	FilterNsPerCand float64
	// ExactNs[engine] is the step 3 cost per exactly-tested pair at
	// RefVerts mean vertices, per predicate family. Within-distance
	// tests are a separate column: deciding dist ≤ ε visits more
	// component (or edge) pairs than finding one intersection, so the
	// engine constants differ from boolean intersection's.
	IntersectExactNs [3]float64
	WithinExactNs    [3]float64
	// ContainsExtraNs is added per exact containment test on top of the
	// intersect column (point-in-polygon sweep after the edge tests).
	ContainsExtraNs float64
	// RefVerts is the mean vertex count the ExactNs columns were
	// calibrated at.
	RefVerts float64
	// WorkerSetupNs and WorkerSetupNsPerCand are the per-worker fixed
	// cost (goroutine, bitsets, batch buffers) and the per-candidate
	// channel/merge overhead the parallel pipeline adds.
	WorkerSetupNs         float64
	WorkerSetupNsPerCand  float64
	CollectNsPerResult    float64
	StreamResultThreshold float64
	// IdentPrior and HitFracPrior are the calibration grid's measured
	// filter identification rate and response pairs per candidate, per
	// Pred; the planner reads them as constants.
	IdentPrior    [3]float64 // per Pred
	HitFracPrior  [3]float64 // per Pred
	ContainPrior  float64    // P(MBR nesting | MBR intersection)
	WithinEpsCost float64    // extra per-candidate cost of ε-expansion
	// WindowExactNs is the cost of one exact object-vs-window test at
	// RefVerts (the step 3 of a window/point query — cheaper than an
	// object-vs-object test).
	WindowExactNs float64
}

// DefaultWeights returns the coefficients calibrated on the PR 6 grid.
func DefaultWeights() Weights {
	return Weights{
		// trstar intersects measured ≈1600 ns/cand = 300 traversal +
		// 400 filter + 0.15 · 6000 exact; planesweep ≈5600 → 32000;
		// quadratic ≈12700 → 80000.
		TraversalNsPerCand:    300,
		TraversalParallelFrac: 0.8,
		PageNs:                250,
		FilterNsPerCand:       400,
		IntersectExactNs:      [3]float64{80000, 32000, 6000},
		// within was calibrated on kernels that computed every distance
		// (ns/cand at ident ≈0.7: quadratic ≈70600 → 230000, planesweep
		// ≈5500 → 16000, trstar ≈4000 → 11000). The threshold kernels
		// measure ≈24100, ≈2600 and ≈1150 on the same grid (PR 16: 1200
		// objects, 48 vertices, ε 0.005), so this column now
		// overprices step 3 — about 3× for quadratic and plane
		// sweep, more for the TR*-tree, whose ≈1150 is mostly traversal
		// and filter. The ranking of the engines, which is what Choose
		// takes from it, is unchanged and the 1.5× regression bound
		// holds, so the column stays until costs are recalibrated as a
		// whole.
		WithinExactNs:         [3]float64{230000, 16000, 11000},
		ContainsExtraNs:       4000,
		RefVerts:              48,
		WorkerSetupNs:         60000,
		WorkerSetupNsPerCand:  150,
		CollectNsPerResult:    120,
		StreamResultThreshold: 200000,
		IdentPrior:            [3]float64{0.85, 0.80, 0.70},
		HitFracPrior:          [3]float64{0.55, 0.30, 0.60},
		ContainPrior:          0.02,
		WithinEpsCost:         100,
		WindowExactNs:         3000,
	}
}

// ChooseQueryFilter decides whether a window/point query on a relation
// should run the approximation filter before the exact test: yes when
// the expected exact work a filter decision saves exceeds the filter
// test itself. Distance (ε-range) queries go straight to the exact
// distance kernel, so the filter never pays there.
func ChooseQueryFilter(s *Stats, w Weights, p Pred) bool {
	if p == PredWithin || s == nil {
		return false
	}
	ident := w.IdentPrior[p]
	verts := s.MeanVerts
	if verts <= 0 {
		verts = w.RefVerts
	}
	return ident*w.WindowExactNs*(verts/w.RefVerts) > w.FilterNsPerCand
}

// exactNs returns the calibrated step 3 cost per tested pair for one
// engine under one predicate, scaled from RefVerts to the workload's
// mean vertex counts. Quadratic compares every edge pair (∝ vr·vs),
// plane sweep sorts and sweeps the union of edges (∝ vr+vs), and the
// TR*-tree probes one prebuilt tree with the other's edges (∝ vr·√vs).
func (w Weights) exactNs(e Engine, p Pred, vr, vs float64) float64 {
	if vr <= 0 {
		vr = w.RefVerts
	}
	if vs <= 0 {
		vs = w.RefVerts
	}
	col := w.IntersectExactNs
	if p == PredWithin {
		col = w.WithinExactNs
	}
	base := col[int(e)]
	ref := w.RefVerts
	var scale float64
	switch e {
	case EngineQuadratic:
		scale = (vr * vs) / (ref * ref)
	case EnginePlaneSweep:
		scale = (vr + vs) / (2 * ref)
	default: // TR*-tree
		scale = (vr * math.Sqrt(vs)) / (ref * math.Sqrt(ref))
	}
	c := base * scale
	if p == PredContains {
		c += w.ContainsExtraNs
	}
	return c
}

// Request describes one planning problem: the predicate, the degrees of
// freedom the caller left open (as candidate lists — a pinned dimension
// is a one-element list), and the fixed context of the run.
type Request struct {
	Pred Pred
	Eps  float64
	// Engines and Filters enumerate the open plan dimensions in
	// preference order (ties in predicted cost resolve to the earlier
	// entry). Workers likewise.
	Engines []Engine
	Filters []bool
	Workers []int
	// MaxProcs caps effective parallelism (GOMAXPROCS at plan time).
	MaxProcs int
	// PagesR and PagesS are the relations' R*-tree page counts (leaf +
	// directory), from the rstar PageBreakdown hook.
	PagesR, PagesS int
	// VertsR and VertsS override the stats' mean vertex counts when > 0.
	VertsR, VertsS float64
	// Collect is true when the caller materializes the response set
	// (Join without WithStream) — adds per-result collection cost and
	// makes large results a reason to recommend streaming.
	Collect bool
}

// Choice is the plan the search settled on, with its predictions.
type Choice struct {
	Engine    Engine
	UseFilter bool
	Workers   int
	// StreamRecommended is advice, not a decision: the planner cannot
	// change the caller's API shape (collect vs callback), but flags
	// result sets predicted past StreamResultThreshold.
	StreamRecommended bool

	PredCandidates  float64
	PredExactTested float64
	PredResults     float64
	PredCostNs      float64
	// Evaluated counts the plan points scored; the space is tiny
	// (engines × filters × workers), so the search is exhaustive.
	Evaluated int
}

// Choose scores every (engine × filter × workers) point against the
// statistics and returns the cheapest. Both stats must be non-nil; the
// multistep layer falls back to its static defaults when a relation
// predates statistics and none could be recomputed.
func Choose(r, s *Stats, w Weights, req Request) Choice {
	if req.MaxProcs < 1 {
		req.MaxProcs = 1
	}
	if len(req.Engines) == 0 {
		req.Engines = []Engine{EngineTRStar, EnginePlaneSweep, EngineQuadratic}
	}
	if len(req.Filters) == 0 {
		req.Filters = []bool{true, false}
	}
	if len(req.Workers) == 0 {
		req.Workers = []int{1}
	}

	cand := EstimateCandidates(r, s, req.Pred, req.Eps, w)
	ident := w.IdentPrior[req.Pred]
	results := cand * w.HitFracPrior[req.Pred]
	vr, vs := req.VertsR, req.VertsS
	if vr <= 0 {
		vr = r.MeanVerts
	}
	if vs <= 0 {
		vs = s.MeanVerts
	}

	best := Choice{PredCandidates: cand, PredResults: results, PredCostNs: math.Inf(1)}
	for _, eng := range req.Engines {
		for _, filter := range req.Filters {
			exactFrac := 1.0
			if filter {
				exactFrac = 1 - ident
			}
			exact := cand * exactFrac
			perCand := w.TraversalNsPerCand
			if req.Pred == PredWithin {
				perCand += w.WithinEpsCost
			}
			trav := cand * perCand
			pages := float64(req.PagesR+req.PagesS) * w.PageNs
			filterC := 0.0
			if filter {
				filterC = cand * w.FilterNsPerCand
			}
			exactC := exact * w.exactNs(eng, req.Pred, vr, vs)
			parallel := filterC + exactC + trav*w.TraversalParallelFrac
			serial := trav*(1-w.TraversalParallelFrac) + pages
			if req.Collect {
				serial += results * w.CollectNsPerResult
			}
			for _, workers := range req.Workers {
				if workers < 1 {
					continue
				}
				best.Evaluated++
				eff := float64(min(workers, req.MaxProcs))
				cost := serial + parallel/eff +
					float64(workers)*w.WorkerSetupNs + cand*w.WorkerSetupNsPerCand*b2f(workers > 1)
				if cost < best.PredCostNs {
					ev := best.Evaluated
					best = Choice{
						Engine: eng, UseFilter: filter, Workers: workers,
						PredCandidates: cand, PredExactTested: exact,
						PredResults: results, PredCostNs: cost, Evaluated: ev,
					}
				}
			}
		}
	}
	best.StreamRecommended = req.Collect && results > w.StreamResultThreshold
	return best
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
