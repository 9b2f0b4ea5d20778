package plan

// The total-performance model of section 5 (Figure 18): the execution
// time of an intersection join split into the MBR-join I/O, the object
// accesses (transferring exact geometry into main memory) and the exact
// intersection tests. It is the *descriptive* sibling of the planner —
// it explains a finished run from its counts, in the paper's 1993
// constants — and takes plain counts so that the package stays a leaf.

// Params are the constants of the section 5 model.
type Params struct {
	// PageAccessTime is the cost of one disk page access (paper: 10 ms).
	PageAccessTime float64
	// ObjectAccessPages models the page accesses caused by one candidate
	// pair that was not identified by the filter (paper: 1).
	ObjectAccessPages float64
	// TRStorageFactor inflates object accesses when objects are stored as
	// TR*-trees, whose representation is larger than a point list
	// (paper: 1.5).
	TRStorageFactor float64
	// PlaneSweepPerPair is the exact-test cost per remaining pair with
	// the plane-sweep algorithm (paper: 25 ms).
	PlaneSweepPerPair float64
	// TRStarPerPair is the exact-test cost per remaining pair with the
	// TR*-tree algorithm (paper: 1 ms).
	TRStarPerPair float64
	// QuadraticPerPair is the exact-test cost per remaining pair with the
	// quadratic algorithm (derived from Table 7; the paper excludes it
	// from Figure 18 as "out of question").
	QuadraticPerPair float64
}

// PaperParams returns the constants of section 5.
func PaperParams() Params {
	return Params{
		PageAccessTime:    10e-3,
		ObjectAccessPages: 1,
		TRStorageFactor:   1.5,
		PlaneSweepPerPair: 25e-3,
		TRStarPerPair:     1e-3,
		QuadraticPerPair:  2e0, // BW-complexity objects, Table 7
	}
}

// Breakdown is one stacked bar of Figure 18, in seconds.
type Breakdown struct {
	MBRJoin      float64 // step 1 page accesses
	ObjectAccess float64 // fetching exact geometry for step 3
	ExactTest    float64 // step 3 CPU
}

// Total returns the total execution time of the modelled join.
func (b Breakdown) Total() float64 { return b.MBRJoin + b.ObjectAccess + b.ExactTest }

// FromStats models the execution time of a measured multi-step join run
// from its counts: pageAccesses on both R*-trees, one object access per
// exactly tested pair (times the storage factor for TR*-tree
// representations), and the per-pair exact-test cost of the engine.
func FromStats(pageAccesses, exactTested int64, engine Engine, p Params) Breakdown {
	perPair := p.ObjectAccessPages * p.PageAccessTime
	var exactPerPair float64
	switch engine {
	case EnginePlaneSweep:
		exactPerPair = p.PlaneSweepPerPair
	case EngineTRStar:
		exactPerPair = p.TRStarPerPair
		perPair *= p.TRStorageFactor
	case EngineQuadratic:
		exactPerPair = p.QuadraticPerPair
	}
	return Breakdown{
		MBRJoin:      float64(pageAccesses) * p.PageAccessTime,
		ObjectAccess: float64(exactTested) * perPair,
		ExactTest:    float64(exactTested) * exactPerPair,
	}
}

// ParallelBreakdown rescales a modelled breakdown for d-way CPU and I/O
// parallelism (the paper's section 6 outlook): I/O components divide by
// the disk count, the exact-test CPU component by the worker count (the
// filter/exact steps parallelize pair-wise over the join's worker pool).
func ParallelBreakdown(b Breakdown, disks, workers int) Breakdown {
	if disks < 1 {
		disks = 1
	}
	if workers < 1 {
		workers = 1
	}
	return Breakdown{
		MBRJoin:      b.MBRJoin / float64(disks),
		ObjectAccess: b.ObjectAccess / float64(disks),
		ExactTest:    b.ExactTest / float64(workers),
	}
}

// GainLoss quantifies the Figure 11 trade-off of storing approximations in
// addition to the MBR: Loss is the extra MBR-join page accesses caused by
// the larger entries; Gain is the page accesses saved by filter-identified
// pairs (one per pair, the paper's "very cautious assumption"); Total is
// Gain − Loss (positive = worthwhile).
type GainLoss struct {
	Loss, Gain, Total float64
}

// Figure11 computes the gain/loss balance from the page accesses of a
// baseline run (MBR only) and of a filtered run of the same join, and
// the number of pairs the filter identified in the latter.
func Figure11(baselinePages, filteredPages, identified int64, p Params) GainLoss {
	loss := float64(filteredPages - baselinePages)
	gain := float64(identified) * p.ObjectAccessPages
	return GainLoss{Loss: loss, Gain: gain, Total: gain - loss}
}
