package multistep

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/exact"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/plan"
	"spatialjoin/internal/resilience/fault"
	"spatialjoin/internal/rstar"
	"spatialjoin/internal/storage"
)

// This file is the unified query API of the package: two entry points,
//
//	Join(ctx, r, s, opts...)  — the predicate-parameterized spatial join
//	                            (join.go)
//	Query(ctx, r, opts...)    — window / point / nearest queries on one
//	                            relation
//
// The predicate (Intersects, Contains, WithinDistance) and every
// execution concern — worker count, streaming emission, per-query access
// contexts, result limits — are orthogonal functional options, and the
// context is threaded through the whole pipeline, so cancelling it stops
// the work mid-join.

// Errors of the unified query API.
var (
	// ErrNoTarget reports a Query without a ForWindow, ForPoint or
	// ForNearest target.
	ErrNoTarget = errors.New("multistep: query has no target (use ForWindow, ForPoint or ForNearest)")
	// ErrBadPredicate reports a predicate the entry point cannot evaluate
	// (a negative distance bound, or Contains/nearest combinations a
	// single-relation query has no semantics for).
	ErrBadPredicate = errors.New("multistep: unsupported predicate for this query")
)

// Option configures one Join or Query call. Options are orthogonal: any
// combination that makes sense may be passed, and the zero set reproduces
// the paper's sequential accounting on the relations' build
// configuration.
type Option func(*Resolved)

// WithPredicate selects the spatial predicate (default Intersects).
func WithPredicate(p Predicate) Option {
	return func(o *Resolved) { o.Pred = p }
}

// WithConfig overrides the processor configuration. Without it the
// relations' build configuration is used, which is almost always right:
// the approximations and tree layout were computed under it. Joins of two
// relations built under different configurations are rejected unless an
// explicit override is given.
func WithConfig(cfg Config) Option {
	return func(o *Resolved) { o.Cfg = &cfg }
}

// WithWorkers sets the worker count of a join: the step 1 traversal
// fan-out, whose workers also decide their candidates through steps 2
// and 3. n ≤ 0 selects GOMAXPROCS (the default); values above
// 4×GOMAXPROCS are clamped — beyond that, extra workers only cost memory
// and scheduling overhead.
// Statistics are independent of the worker count by construction.
func WithWorkers(n int) Option {
	return func(o *Resolved) { o.Workers = n }
}

// WithStream streams response pairs to emit as they are decided (on the
// worker that decided them, one call at a time under a mutex, in no
// particular order) instead of collecting them: Join returns a nil slice
// and holds no response pair, whatever the response-set size.
func WithStream(emit func(Pair)) Option {
	return func(o *Resolved) { o.Stream = emit }
}

// WithBufferless discards the response set entirely: Join returns a nil
// slice and only the statistics. (WithStream already implies bounded
// memory; WithBufferless is for measurement runs that need no pairs at
// all.)
func WithBufferless() Option {
	return func(o *Resolved) { o.Bufferless = true }
}

// WithSessions routes each side's page visits through explicit per-query
// access contexts — typically Relation.NewSession of each side. With both
// set, the call never touches the shared tree buffers, so any number of
// queries may run concurrently on the same relations, each reporting
// exactly its solo-run statistics. A nil accessor selects the shared
// buffer (counters reset first) for that side — the paper's sequential
// single-query accounting, one query at a time.
func WithSessions(axR, axS storage.Accessor) Option {
	return func(o *Resolved) { o.AxR, o.AxS = axR, axS }
}

// WithSession is WithSessions for the single-relation Query entry point.
func WithSession(ax storage.Accessor) Option {
	return func(o *Resolved) { o.AxR = ax }
}

// WithLimit caps the number of response pairs Join returns (the sorted
// (A, B)-prefix of the full response set; statistics always reflect the
// complete join). n < 0 means unlimited, the default.
func WithLimit(n int) Option {
	return func(o *Resolved) { o.Limit = n }
}

// ForWindow targets Query at a window: the objects whose regions
// intersect w (or, under WithinDistance(ε), come within ε of it).
func ForWindow(w geom.Rect) Option {
	return func(o *Resolved) { o.Window = &w }
}

// ForPoint targets Query at a point: the objects whose regions contain p
// (or, under WithinDistance(ε), come within ε of it — the ε-range query).
func ForPoint(p geom.Point) Option {
	return func(o *Resolved) { o.Point = &p }
}

// WithPartialResults marks a query as degradable: a multi-relation
// coordinator (internal/shard's scatter-gather layer) may answer from
// the tiles that succeeded when others fail, flagging the result as
// degraded instead of failing the whole query. The single-relation
// entry points ignore it (one relation either answers or errors), and
// joins always fail closed — a partial join silently loses pairs.
func WithPartialResults() Option {
	return func(o *Resolved) { o.Partial = true }
}

// ForNearest targets Query at the k objects closest to p by exact region
// distance, refined over R*-tree MBR-distance candidates.
func ForNearest(p geom.Point, k int) Option {
	return func(o *Resolved) {
		o.Point = &p
		o.Nearest = true
		o.NearestK = k
	}
}

// Resolved is the resolved option set of one Join or Query call — the
// one options struct of the package: every Option writes into it and
// the drivers read from it. It is exported for coordinators that route
// one logical query across several relations (internal/shard's
// scatter-gather layer): they resolve a request once, read the
// predicate for tile routing, the limit for global truncation and the
// target for the merge shape, and hand RunJoin (which applies no limit)
// or RunQuery a per-tile copy with its own Explain and its own sessions,
// and for RunQuery the limit lifted.
type Resolved struct {
	// Pred is the configured predicate (the zero value is Intersects).
	Pred Predicate
	// Cfg is the WithConfig override, nil without one (the relations'
	// build configuration then applies).
	Cfg *Config
	// Limit is the WithLimit cap; < 0 means unlimited. Join and RunQuery
	// apply it, RunJoin does not.
	Limit int
	// Stream is the WithStream emitter, nil without one.
	Stream func(Pair)
	// Bufferless reports WithBufferless.
	Bufferless bool
	// AxR and AxS are the WithSessions page-access contexts (AxR alone
	// for WithSession); nil selects the shared tree buffer.
	AxR, AxS storage.Accessor
	// Window, Point, Nearest and NearestK mirror the ForWindow, ForPoint
	// and ForNearest targets.
	Window   *geom.Rect
	Point    *geom.Point
	Nearest  bool
	NearestK int
	// Plan reports WithPlan, which joins apply and queries ignore;
	// Explain is the WithExplain capture target, nil without one. A
	// coordinator fanning one logical join across tile pairs must give
	// each sub-join its own Explain and aggregate afterwards.
	Plan    bool
	Explain *Explain
	// Workers is the WithWorkers value, 0 when unset (the planner, or
	// else GOMAXPROCS, then decides).
	Workers int
	// Partial reports WithPartialResults — a coordinator may answer
	// from the succeeding tiles and mark the result degraded.
	Partial bool
}

// ResolveOptions applies an option list over the defaults.
func ResolveOptions(opts []Option) Resolved {
	o := Resolved{Limit: -1}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// ValidateQueryTarget checks the target and its combination with the
// predicate. It is the one place a query target is validated: the
// single-relation Query entry point calls it, and a routing layer calls
// it to reject a malformed query before fanning it out to any tile.
func (o Resolved) ValidateQueryTarget() error {
	switch {
	case o.Nearest:
		if o.Window != nil {
			return errors.New("multistep: query has more than one target")
		}
		if o.Pred.kind != predIntersects {
			return fmt.Errorf("%w: nearest-objects queries take no predicate", ErrBadPredicate)
		}
	case o.Window != nil && o.Point != nil:
		return errors.New("multistep: query has more than one target")
	case o.Window == nil && o.Point == nil:
		return ErrNoTarget
	default:
		if o.Pred.kind == predContains {
			return fmt.Errorf("%w: containment of a window is not a query predicate", ErrBadPredicate)
		}
		// A window with swapped corners is empty to every rectangle test
		// and would answer "no objects" instead of failing.
		if w := o.Window; w != nil && (w.MinX > w.MaxX || w.MinY > w.MaxY) {
			return fmt.Errorf("multistep: window [%g, %g]×[%g, %g] has a lower corner above its upper corner",
				w.MinX, w.MaxX, w.MinY, w.MaxY)
		}
	}
	return nil
}

// joinConfig picks the effective configuration of a join and rejects
// mismatched build configurations without an explicit override.
func joinConfig(r, s *Relation, o *Resolved) (Config, error) {
	if o.Cfg != nil {
		return *o.Cfg, nil
	}
	if r.fp != s.fp {
		return Config{}, fmt.Errorf("multistep: relations %q and %q were built under different configurations: %w",
			r.Name, s.Name, ErrConfigMismatch)
	}
	return r.Cfg, nil
}

// QueryResult is the answer of the unified Query entry point.
type QueryResult struct {
	// IDs lists the qualifying objects for window and point targets,
	// in tree-delivery order (the pre-redesign order).
	IDs []int32
	// Neighbors lists the k nearest objects for ForNearest targets, by
	// ascending exact region distance.
	Neighbors []Neighbor
	// Stats carries the per-step measurements; for ForNearest only the
	// page accounting and result count apply.
	Stats WindowStats
}

// Query runs a multi-step query on one relation: a window query, a point
// query, an ε-range query (a window/point target with WithinDistance), or
// a k-nearest-objects query. Exactly one target option (ForWindow,
// ForPoint, ForNearest) is required.
//
// Accounting follows Join: the shared tree buffer (counters reset first)
// without WithSession, an isolated per-query context with it.
// Cancellation stops the tree traversal at the next node and returns
// ctx.Err().
func Query(ctx context.Context, r *Relation, opts ...Option) (QueryResult, error) {
	return RunQuery(ctx, r, ResolveOptions(opts))
}

// RunQuery is Query on an already resolved option set — the entry of
// coordinators that resolve a request once and run it on several
// relations.
func RunQuery(ctx context.Context, r *Relation, o Resolved) (QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := o.Pred.Validate(); err != nil {
		return QueryResult{}, err
	}
	if err := o.ValidateQueryTarget(); err != nil {
		return QueryResult{}, err
	}
	cfg := r.Cfg
	if o.Cfg != nil {
		cfg = *o.Cfg
	}
	ax := o.AxR
	if ax == nil {
		buf := r.Tree.Buffer()
		buf.ResetCounters()
		ax = buf
	}
	started := time.Now()
	res, err := queryDispatch(ctx, r, ax, cfg, &o)
	if ex := o.Explain; ex != nil {
		// A query runs on one worker and reads no engine; an ε-range
		// query decides every candidate by its exact distance, so the
		// filter runs only under the other predicates.
		pl := Plan{
			Engine:    plan.Engine(cfg.Engine).String(),
			UseFilter: cfg.UseFilter && o.Pred.kind != predWithin,
			Workers:   1,
		}
		*ex = Explain{Plan: pl, Executed: err == nil}
		if err == nil {
			ex.ActualCandidates = res.Stats.Candidates
			ex.ActualExactTested = res.Stats.ExactTested
			ex.ActualResultPairs = res.Stats.ResultObjects
			ex.ActualWallNs = time.Since(started).Nanoseconds()
		}
	}
	return res, err
}

// queryDispatch routes a resolved, validated Query to its target
// implementation.
func queryDispatch(ctx context.Context, r *Relation, ax storage.Accessor, cfg Config, o *Resolved) (QueryResult, error) {
	switch {
	case o.Nearest:
		return nearestQuery(ctx, r, ax, *o.Point, o.NearestK)
	case o.Window != nil:
		return rangeQuery(ctx, r, ax, *o.Window, cfg, o.Pred, o.Limit)
	default:
		w := geom.Rect{MinX: o.Point.X, MinY: o.Point.Y, MaxX: o.Point.X, MaxY: o.Point.Y}
		return rangeQuery(ctx, r, ax, w, cfg, o.Pred, o.Limit)
	}
}

// rangeQuery answers window and point targets under the Intersects and
// WithinDistance predicates: the R*-tree delivers the objects whose MBRs
// satisfy the (ε-expanded) window predicate, the geometric filter decides
// most of them on approximations (Intersects only; distance queries go
// straight to the exact kernel), and the rest are decided exactly.
func rangeQuery(ctx context.Context, r *Relation, ax storage.Accessor, w geom.Rect, cfg Config, pred Predicate, limit int) (QueryResult, error) {
	var res QueryResult
	eps := pred.step1Eps()
	missesBefore := ax.Misses()
	// ferr latches the first fault the "exact" injection site fires on
	// this query's exact decisions; the traversal keeps its shape (the
	// counters stay deterministic) and the error surfaces afterwards.
	var ferr error
	r.Tree.WindowQueryAccessStop(ax, w.Expand(eps), ctx.Done(), func(it rstar.Item) {
		res.Stats.Candidates++
		o := r.Objects[it.ID]
		if pred.kind == predWithin {
			// The ε-range test: exact region-to-window distance, the same
			// kernel the nearest-objects refinement uses.
			res.Stats.ExactTested++
			if e := fault.Check("exact"); e != nil && ferr == nil {
				ferr = e
				return
			}
			if o.Poly.DistToRect(w) <= eps {
				res.IDs = append(res.IDs, o.ID)
			}
			return
		}
		if cfg.UseFilter {
			switch cfg.Filter.ClassifyWindow(o.Approx, w) {
			case approx.Hit:
				res.Stats.FilterHits++
				res.IDs = append(res.IDs, o.ID)
				return
			case approx.FalseHit:
				res.Stats.FilterFalseHits++
				return
			}
		}
		res.Stats.ExactTested++
		if e := fault.Check("exact"); e != nil && ferr == nil {
			ferr = e
			return
		}
		var c Stats // scratch counter sink; window queries report counts only
		if exact.IntersectsRectExact(o.Prepared(), w, &c.Ops) {
			res.IDs = append(res.IDs, o.ID)
		}
	})
	if err := ctx.Err(); err != nil {
		return QueryResult{}, err
	}
	if ferr != nil {
		return QueryResult{}, ferr
	}
	if limit >= 0 && len(res.IDs) > limit {
		res.IDs = res.IDs[:limit]
	}
	res.Stats.PageAccesses = ax.Misses() - missesBefore
	res.Stats.ResultObjects = int64(len(res.IDs))
	return res, nil
}

// nearestQuery answers ForNearest targets by multi-step k-nearest search
// (Seidl and Kriegel): the R*-tree ranks the objects by MBR distance, a
// lower bound of the region distance; each is refined by its exact
// distance as it arrives, and the search ends at the first MBR distance
// strictly greater than the k-th best exact distance. No object closer
// than that bound is left unrefined and none farther is refined, and the
// objects tied at the k-th distance are all seen, so the answer is the
// first k of the (distance, ID) order whatever the tree looks like.
func nearestQuery(ctx context.Context, r *Relation, ax storage.Accessor, p geom.Point, k int) (QueryResult, error) {
	var res QueryResult
	missesBefore := ax.Misses()
	k = min(k, len(r.Objects))
	if k <= 0 {
		return res, nil
	}
	done := ctx.Done()
	best := make(kNearest, 0, k)
	r.Tree.NearestRankAccess(ax, p, func(it rstar.Item, mbrDist float64) bool {
		if len(best) == k && mbrDist > best[0].Dist {
			return false
		}
		select {
		case <-done:
			return false
		default:
		}
		res.Stats.Candidates++
		res.Stats.ExactTested++
		best.offer(Neighbor{ID: it.ID, Dist: r.Objects[it.ID].Poly.DistToPoint(p)})
		return true
	})
	if err := ctx.Err(); err != nil {
		return QueryResult{}, err
	}
	slices.SortFunc(best, CompareNeighbors)
	res.Neighbors = best
	res.Stats.ResultObjects = int64(k)
	res.Stats.PageAccesses = ax.Misses() - missesBefore
	return res, nil
}
