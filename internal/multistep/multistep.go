// Package multistep implements the paper's primary contribution: the
// three-step spatial join processor of Figure 1.
//
//	Step 1 — MBR-join: an R*-tree synchronized traversal [BKS 93a]
//	         delivers candidate pairs whose MBRs intersect.
//	Step 2 — geometric filter: conservative approximations prove false
//	         hits, progressive approximations (and optionally the
//	         false-area test) prove hits, without touching exact geometry.
//	Step 3 — exact geometry processor: the remaining candidates are
//	         decided on the exact representation (quadratic, plane sweep,
//	         or TR*-tree over decomposed objects).
//
// Each step 1 candidate is handed straight to steps 2 and 3 without
// materializing an intermediate candidate set (section 2.4). The
// processor is predicate-generic — section 2.2's "for other predicates
// ... a similar approach can be used" — and the public surface reflects
// that: one context-aware, option-driven entry point per query shape,
//
//	Join(ctx, r, s, opts...)   // intersection, inclusion, ε-distance joins
//	Query(ctx, r, opts...)     // window, point, ε-range, nearest queries
//
// with the Predicate (Intersects, Contains, WithinDistance) specializing
// all three steps and functional options covering workers, streaming,
// per-query access contexts and limits (see api.go and predicate.go).
// A join runs on one worker pool — the CPU parallelism the paper defers
// to future work in section 6: step 1's traversal is partitioned over the
// workers, and each worker decides the candidates it finds through steps
// 2 and 3 itself, producing exactly the sequential response set and
// statistics.
package multistep

import (
	"fmt"
	"strings"
	"sync/atomic"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/exact"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/ops"
	"spatialjoin/internal/plan"
	"spatialjoin/internal/rstar"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/trstar"
)

// Engine selects the exact geometry algorithm of step 3.
type Engine int

// The three exact engines of section 4.
const (
	EngineQuadratic Engine = iota
	EnginePlaneSweep
	EngineTRStar
)

// String returns the paper's name for the engine.
func (e Engine) String() string {
	switch e {
	case EngineQuadratic:
		return "quadratic"
	case EnginePlaneSweep:
		return "plane-sweep"
	case EngineTRStar:
		return "TR*-tree"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine parses an engine name: "trstar" (also "tr*", "tr"),
// "planesweep" ("sweep") or "quadratic" ("naive").
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(s) {
	case "trstar", "tr*", "tr":
		return EngineTRStar, nil
	case "planesweep", "sweep":
		return EnginePlaneSweep, nil
	case "quadratic", "naive":
		return EngineQuadratic, nil
	}
	return 0, fmt.Errorf("multistep: unknown engine %q", s)
}

// Config assembles a join processor variant. The zero value is not valid;
// use DefaultConfig (the paper's final recommendation, "version 3" of
// Figure 18) and modify from there.
type Config struct {
	// UseFilter enables step 2. Without it every candidate pair goes to
	// the exact processor ("version 1" of Figure 18).
	UseFilter bool
	// Filter selects the approximations of step 2.
	Filter approx.FilterConfig
	// Engine selects the step 3 algorithm.
	Engine Engine
	// PlaneSweepRestrict applies the search-space restriction of
	// section 4.1 (on by default in the paper's numbers).
	PlaneSweepRestrict bool
	// TRCapacity is the TR*-tree node capacity (Figure 17: 3 is best).
	TRCapacity int
	// PageSize and BufferBytes configure the R*-trees of step 1.
	PageSize    int
	BufferBytes int
	// BufferPolicy selects the R*-tree buffer replacement policy
	// (default LRU, the paper's choice).
	BufferPolicy storage.Policy
	// MECPrecision tunes the maximum-enclosed-circle computation.
	MECPrecision float64
}

// DefaultConfig returns the paper's recommended configuration: 5-corner +
// MER filtering and the TR*-tree exact engine with M = 3, on 4 KB pages
// with a 128 KB buffer.
func DefaultConfig() Config {
	return Config{
		UseFilter:          true,
		Filter:             approx.RecommendedFilter(),
		Engine:             EngineTRStar,
		PlaneSweepRestrict: true,
		TRCapacity:         trstar.DefaultCapacity,
		PageSize:           4096,
		BufferBytes:        128 << 10,
	}
}

// Object is one spatial object with its precomputed approximations and
// lazily built exact-geometry representations. The lazy builders are safe
// for concurrent use, so the join's workers can share objects without
// coordination; the builds are deterministic, so a duplicated concurrent
// build yields an equivalent representation.
type Object struct {
	ID     int32
	Poly   *geom.Polygon
	Approx *approx.Set

	prepared atomic.Pointer[exact.PreparedPolygon] // built on first exact test
	tree     atomic.Pointer[trstar.Tree]           // built on first TR*-tree test
}

// Prepared returns the plane-sweep/quadratic representation, building it
// on first use (the paper's per-object preprocessing).
func (o *Object) Prepared() *exact.PreparedPolygon {
	if p := o.prepared.Load(); p != nil {
		return p
	}
	p := exact.Prepare(o.Poly)
	if !o.prepared.CompareAndSwap(nil, p) {
		return o.prepared.Load()
	}
	return p
}

// Tree returns the TR*-tree representation, building it on first use.
// Like Prepared it is safe for concurrent use: the common case — many
// queries racing to build the tree at the same capacity — publishes one
// canonical tree via compare-and-swap, so every caller observes the same
// instance. Only a capacity change (a different Config against the same
// objects, which no query workload does mid-flight) rebuilds and
// replaces the cached tree.
func (o *Object) Tree(capacity int) *trstar.Tree {
	if t := o.tree.Load(); t != nil && t.Capacity() == capacity {
		return t
	}
	t := trstar.NewFromPolygon(o.Poly, capacity)
	if o.tree.CompareAndSwap(nil, t) {
		return t
	}
	// Lost the build race: adopt the winner if it has the right
	// capacity, else replace the stale-capacity tree (last writer wins;
	// both replacements are valid trees for their capacity).
	if cur := o.tree.Load(); cur != nil && cur.Capacity() == capacity {
		return cur
	}
	o.tree.Store(t)
	return t
}

// Relation is a set of objects indexed by an R*-tree on their MBRs. The
// R*-tree entry size reflects the approximations stored with each entry
// (section 3.4, approach 2), so enabling the filter costs index capacity —
// the loss/gain trade-off of Figure 11.
//
// A built (or reopened) Relation is immutable and serves any number of
// concurrent queries, provided each query carries its own page-access
// context: create one with NewSession and pass it via the WithSessions
// (joins) or WithSession (queries) option. Without sessions, Join and
// Query account on the shared tree buffer — the paper's sequential
// mode, one query at a time.
type Relation struct {
	Name    string
	Objects []*Object
	Tree    *rstar.Tree
	// Cfg is the configuration the relation was preprocessed under —
	// which approximations were computed, the tree layout, the exact
	// engine. The unified Join/Query entry points default to it, so a
	// relation carries everything a query needs.
	Cfg Config
	// Stats are the planner statistics of the relation, derived from the
	// object table whenever the relation is built or opened and never
	// updated afterwards; the stores do not persist them. Nil on
	// relations assembled by hand — the planner then falls back to
	// static defaults.
	Stats *plan.Stats
	// fp is ConfigFingerprint(Cfg), hashed once with Stats.
	fp uint64
}

// Fingerprint returns ConfigFingerprint of the relation's configuration,
// computed once when the relation was built or opened: two relations join
// under their own configuration only if their fingerprints agree.
func (r *Relation) Fingerprint() uint64 { return r.fp }

// computeStats derives the planner statistics from the object table.
func (r *Relation) computeStats() *plan.Stats {
	return plan.ComputeStats(len(r.Objects),
		func(i int) geom.Rect { return r.Objects[i].Approx.MBR },
		func(i int) int { return r.Objects[i].Poly.NumVertices() })
}

// NewSession returns a per-query page-access context for the relation's
// R*-tree: a private replacement simulation seeded from the shared
// buffer's current snapshot, with isolated hit/miss counters. Sessions
// make the relation safe for N concurrent queries, each reporting
// exactly the statistics a sequential query from the same starting
// buffer state would.
func (r *Relation) NewSession() *storage.Session { return r.Tree.NewSession() }

// EntryBytes returns the modelled R*-tree data-entry size for a filter
// configuration (section 5: MBR 16 B + info 32 B + approximations).
func EntryBytes(cfg Config) int {
	if !cfg.UseFilter {
		return approx.ApproxByteSize()
	}
	return approx.ApproxByteSize(cfg.Filter.Conservative, cfg.Filter.Progressive)
}

// NewRelation preprocesses a relation: approximations for every object
// (only those the configuration needs) and the R*-tree over the MBRs.
func NewRelation(name string, polys []*geom.Polygon, cfg Config) *Relation {
	rel := &Relation{Name: name, Cfg: cfg}
	var opt approx.Options
	if cfg.UseFilter {
		opt = cfg.Filter.Kinds()
	}
	opt.MECPrecision = cfg.MECPrecision
	tree := rstar.New(rstar.Config{
		PageSize:       cfg.PageSize,
		LeafEntryBytes: EntryBytes(cfg),
		BufferBytes:    cfg.BufferBytes,
		BufferPolicy:   cfg.BufferPolicy,
	})
	for i, p := range polys {
		o := &Object{ID: int32(i), Poly: p, Approx: approx.Compute(p, opt)}
		rel.Objects = append(rel.Objects, o)
		tree.Insert(rstar.Item{Rect: o.Approx.MBR, ID: o.ID})
	}
	rel.Tree = tree
	rel.Stats, rel.fp = rel.computeStats(), ConfigFingerprint(cfg)
	return rel
}

// Pair is one element of the response set.
type Pair struct {
	A, B int32 // object IDs in the two relations
}

// ComparePairs orders pairs by (A, B), the order of every collected join
// response. OrderPairs produces that order without comparing; this is
// its definition for callers that sort or check pairs themselves.
func ComparePairs(p, q Pair) int {
	if p.A != q.A {
		return int(p.A - q.A)
	}
	return int(p.B - q.B)
}

// Stats reports the work of one multi-step join, step by step.
type Stats struct {
	// Step 1.
	CandidatePairs int64           // pairs of intersecting MBRs
	MBRJoin        rstar.JoinStats // traversal work of the R*-tree join
	PageAccessesR  int64           // buffer misses of relation R's tree
	PageAccessesS  int64           // buffer misses of relation S's tree

	// Step 2.
	FilterHits      int64 // pairs proven hits by approximations
	FilterFalseHits int64 // pairs proven false hits by approximations

	// Step 3.
	ExactTested   int64 // pairs decided on exact geometry
	ExactHits     int64
	ObjectFetches int64 // distinct objects whose exact geometry was loaded
	Ops           ops.Counters

	// Result.
	ResultPairs int64
}

// Identified returns the fraction of candidate pairs the geometric filter
// decided — the Figure 12 measure.
func (s Stats) Identified() float64 {
	if s.CandidatePairs == 0 {
		return 0
	}
	return float64(s.FilterHits+s.FilterFalseHits) / float64(s.CandidatePairs)
}
