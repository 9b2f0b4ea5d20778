package plan

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

// Weights are the priors the estimates read, measured on an engine ×
// predicate grid of 1200 objects per relation at ~48 vertices per
// object with the filter on. They shape EXPLAIN's predictions, never a
// decision.
type Weights struct {
	// IdentPrior and HitFracPrior are the grid's measured filter
	// identification rate and response pairs per candidate, per Pred.
	IdentPrior   [3]float64
	HitFracPrior [3]float64
	// ContainPrior is P(MBR nesting | MBR intersection).
	ContainPrior float64
	// StreamResultThreshold is the predicted response size above which
	// a collecting caller is advised to stream.
	StreamResultThreshold float64
}

// DefaultWeights returns the measured priors.
func DefaultWeights() Weights {
	return Weights{
		IdentPrior:            [3]float64{0.85, 0.80, 0.70},
		HitFracPrior:          [3]float64{0.55, 0.30, 0.60},
		ContainPrior:          0.02,
		StreamResultThreshold: 200000,
	}
}

// Request describes one planning problem: the predicate, the choices
// the caller left to the planner (as candidate lists — a pinned
// dimension is a one-element list), and the context of the run.
type Request struct {
	Pred Pred
	Eps  float64
	// Engines and Filters list the admissible engines and filter
	// settings in preference order; Choose takes the first of each.
	Engines []Engine
	Filters []bool
	// Workers pins the worker count when it has one element; otherwise
	// the count is open and Choose runs MaxProcs workers.
	Workers []int
	// MaxProcs is GOMAXPROCS at plan time.
	MaxProcs int
	// PagesR and PagesS are unused: no rule reads the R*-tree page
	// counts. They remain because callers outside this module set them.
	PagesR, PagesS int
	// Collect is true when the caller materializes the response set
	// (Join without WithStream); large predicted results then earn a
	// recommendation to stream.
	Collect bool
}

// Choice is the plan Choose settled on, with its predictions.
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
}

// Choose applies the planning rules. Pinned dimensions pass through;
// open ones resolve as follows:
//
//   - engine: the first admissible one, which is the TR*-tree whenever
//     the relations carry object trees — the paper's recommendation
//     (Figure 18, version 3);
//   - filter: on whenever the relations carry approximations;
//   - workers: MaxProcs, the unplanned default.
//
// The statistics feed only the predictions. Both must be non-nil; the
// multistep layer falls back to its static defaults when a relation
// has none.
func Choose(r, s *Stats, w Weights, req Request) Choice {
	c := Choice{Engine: EngineTRStar, UseFilter: true, Workers: max(req.MaxProcs, 1)}
	if len(req.Engines) > 0 {
		c.Engine = req.Engines[0]
	}
	if len(req.Filters) > 0 {
		c.UseFilter = req.Filters[0]
	}
	if len(req.Workers) == 1 {
		c.Workers = req.Workers[0]
	}

	c.PredCandidates = estimateCandidates(r, s, req.Pred, req.Eps, w)
	c.PredResults = c.PredCandidates * w.HitFracPrior[req.Pred]
	c.PredExactTested = c.PredCandidates
	if c.UseFilter {
		c.PredExactTested *= 1 - w.IdentPrior[req.Pred]
	}
	c.StreamRecommended = req.Collect && c.PredResults > w.StreamResultThreshold
	return c
}
