package multistep

import (
	"runtime"
	"time"

	"spatialjoin/internal/plan"
)

// This file is the EXPLAIN surface of the join processor:
//
//   - WithExplain(&ex) captures the plan a call ran under — the
//     relations' build configuration, or the WithConfig override — and,
//     after execution, the measured counts.
//   - ExplainJoin describes a join without executing it (the EXPLAIN
//     verb).
//   - WithPlan() lets a join resolve the options the caller left unset —
//     exact engine, filter on/off, worker count — through internal/plan
//     and attaches its predictions. Explicit options always win:
//     WithConfig pins the engine and the filter, WithWorkers pins the
//     worker count, and a pinned dimension reaches the planner as a
//     one-element candidate list, so a fully pinned planned join executes
//     bit-identically to the unplanned call.
//
// No shipped program plans: the server, the CLI tools and the facade run
// the build configuration. WithPlan, planJoin, the Predicted* fields of
// Plan and Explain.CandidateError remain only because the benchmark's
// stage replay calls and reads them; they go with it (ROADMAP items 4(b)
// and 23).

// Plan describes the execution configuration one call ran (or would
// run) under. Engine names use the canonical parseable spelling
// ("trstar", "planesweep", "quadratic").
type Plan struct {
	// Planned reports whether the planner chose any dimension; false
	// means the plan merely echoes the caller's resolved options (no
	// WithPlan, or relations without statistics).
	Planned bool `json:"planned"`
	// Engine, UseFilter and Workers are the resolved execution knobs.
	Engine    string `json:"engine"`
	UseFilter bool   `json:"filter"`
	Workers   int    `json:"workers"`
	// Stream reports the caller's emission mode (WithStream).
	Stream bool `json:"stream"`
	// Predicted* are the planner's estimates; zero when not planned.
	// Only the benchmark's stage replay plans (ROADMAP items 4(b), 23).
	PredictedCandidates  float64 `json:"predictedCandidates,omitempty"`
	PredictedExactTested float64 `json:"predictedExactTested,omitempty"`
	PredictedResultPairs float64 `json:"predictedResultPairs,omitempty"`
}

// Explain is the EXPLAIN record of one join: the plan, and after
// execution the measured counts and the prediction error.
type Explain struct {
	Plan     Plan `json:"plan"`
	Executed bool `json:"executed"`
	// Actual* are filled after a successful execution.
	ActualCandidates  int64 `json:"actualCandidates,omitempty"`
	ActualExactTested int64 `json:"actualExactTested,omitempty"`
	ActualResultPairs int64 `json:"actualResultPairs,omitempty"`
	ActualWallNs      int64 `json:"actualWallNs,omitempty"`
	// CandidateError is the predicted/actual candidate ratio (1 is a
	// perfect prediction); zero when the run was not planned or had no
	// candidates. Only the benchmark's stage replay reads it (ROADMAP
	// items 4(b), 23).
	CandidateError float64 `json:"candidateError,omitempty"`
}

// WithPlan resolves the options a join left unset through the planner:
// the exact engine and filter setting (unless WithConfig pinned them)
// and the worker count (unless WithWorkers did). Relations without
// statistics fall back to their build configuration unchanged. See
// plan.Choose for the rules. Queries ignore it. Only the benchmark's
// stage replay calls it; it goes with that replay (ROADMAP items 4(b)
// and 23).
func WithPlan() Option {
	return func(o *Resolved) { o.Plan = true }
}

// WithExplain records the plan a call ran under and, after execution,
// its measured counts into *ex.
func WithExplain(ex *Explain) Option {
	return func(o *Resolved) { o.Explain = ex }
}

// ExplainJoin plans a join exactly as Join with the same resolved
// options would, without executing it — the EXPLAIN verb.
func ExplainJoin(r, s *Relation, o Resolved) (Explain, error) {
	if err := o.Pred.Validate(); err != nil {
		return Explain{}, err
	}
	cfg, err := joinConfig(r, s, &o)
	if err != nil {
		return Explain{}, err
	}
	var ex Explain
	if o.Plan {
		_, _, ex.Plan = planJoin(r, s, cfg, &o)
	} else {
		ex.Plan = echoPlan(cfg, &o)
	}
	return ex, nil
}

// planPred maps a predicate kind onto the planner's mirror type.
func planPred(p Predicate) plan.Pred { return plan.Pred(p.kind) }

// effectiveWorkers resolves a requested worker count for the join
// pipeline: ≤ 0 selects GOMAXPROCS, and everything is clamped to
// 4×GOMAXPROCS — beyond that, extra workers only cost memory and
// scheduling (the serving layer applies the same guard to its
// unauthenticated workers parameter; the library enforces it for every
// caller rather than trusting them).
func effectiveWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if maxWorkers := 4 * runtime.GOMAXPROCS(0); n > maxWorkers {
		n = maxWorkers
	}
	return n
}

// echoPlan describes the static (unplanned) execution of a call.
func echoPlan(cfg Config, o *Resolved) Plan {
	return Plan{
		Engine:    plan.Engine(cfg.Engine).String(),
		UseFilter: cfg.UseFilter,
		Workers:   effectiveWorkers(o.Workers),
		Stream:    o.Stream != nil,
	}
}

// planJoin runs the planner for one join and returns the adjusted
// configuration, the chosen worker count, and the plan record. Pinned
// dimensions (WithConfig → engine and filter, WithWorkers → workers)
// reach the planner as one-element candidate lists; relations without
// statistics skip planning entirely.
func planJoin(r, s *Relation, cfg Config, o *Resolved) (Config, int, Plan) {
	if r.Stats == nil || s.Stats == nil {
		pl := echoPlan(cfg, o)
		return cfg, o.Workers, pl
	}
	req := plan.Request{
		Pred:     planPred(o.Pred),
		Eps:      o.Pred.Epsilon(),
		MaxProcs: runtime.GOMAXPROCS(0),
	}
	if o.Cfg != nil {
		// An explicit configuration pins the engine and the filter.
		req.Engines = []plan.Engine{plan.Engine(cfg.Engine)}
		req.Filters = []bool{cfg.UseFilter}
	} else {
		// The TR*-tree engine needs a node capacity; the filter can be
		// switched off at query time but never on — a relation built
		// without the filter has no approximations to test.
		if cfg.TRCapacity > 0 {
			req.Engines = append(req.Engines, plan.EngineTRStar)
		}
		req.Engines = append(req.Engines, plan.EnginePlaneSweep, plan.EngineQuadratic)
		if cfg.UseFilter {
			req.Filters = []bool{true, false}
		} else {
			req.Filters = []bool{false}
		}
	}
	if o.Workers > 0 {
		req.Workers = []int{effectiveWorkers(o.Workers)}
	}

	c := plan.Choose(r.Stats, s.Stats, plan.DefaultWeights(), req)
	cfg.Engine = Engine(c.Engine)
	cfg.UseFilter = c.UseFilter
	pl := Plan{
		Planned:              true,
		Engine:               c.Engine.String(),
		UseFilter:            c.UseFilter,
		Workers:              c.Workers,
		Stream:               o.Stream != nil,
		PredictedCandidates:  c.PredCandidates,
		PredictedExactTested: c.PredExactTested,
		PredictedResultPairs: c.PredResults,
	}
	return cfg, c.Workers, pl
}

// fillExplain completes an Explain record after execution.
func fillExplain(ex *Explain, pl Plan, st Stats, wall time.Duration, ok bool) {
	ex.Plan = pl
	ex.Executed = ok
	if !ok {
		return
	}
	ex.ActualCandidates = st.CandidatePairs
	ex.ActualExactTested = st.ExactTested
	ex.ActualResultPairs = st.ResultPairs
	ex.ActualWallNs = wall.Nanoseconds()
	if pl.Planned && st.CandidatePairs > 0 {
		ex.CandidateError = pl.PredictedCandidates / float64(st.CandidatePairs)
	}
}
