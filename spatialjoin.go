// Package spatialjoin is a from-scratch Go implementation of the
// multi-step spatial join processor of Brinkhoff, Kriegel, Schneider and
// Seeger (Multi-Step Processing of Spatial Joins, SIGMOD 1994), together
// with every substrate the paper depends on.
//
// This package is the public facade: it re-exports the geometry types,
// the join processor and the data generator so that a downstream user
// needs a single import. The implementation lives in the internal
// packages (see README.md for the map); the facade adds nothing beyond
// names, so the documentation of the aliased symbols applies unchanged.
//
// A relation is a set of Z-order tiles, each with its own R*-tree; one
// tile is the paper's relation. Every verb has one form — one
// constructor, one Join, one Query, one save/open pair — with the
// predicate and every execution concern as options:
//
//	cfg := spatialjoin.DefaultConfig()
//	r := spatialjoin.NewRelation("cities", cityPolygons, 1, cfg)
//	s := spatialjoin.NewRelation("forests", forestPolygons, 1, cfg)
//	pairs, stats, err := spatialjoin.Join(ctx, r, s)
//
//	// ε-distance join, streamed, cancellable:
//	_, stats, err = spatialjoin.Join(ctx, r, s,
//		spatialjoin.WithPredicate(spatialjoin.WithinDistance(0.05)),
//		spatialjoin.WithStream(func(p spatialjoin.Pair) { ... }))
//
//	// window / point / nearest queries:
//	res, err := spatialjoin.Query(ctx, r, spatialjoin.ForWindow(w))
//
//	// persist and reopen:
//	err = spatialjoin.SaveRelation("cities.store", r)
//	r, err = spatialjoin.OpenRelation("cities.store", cfg)
//
// Every call runs on page-access sessions of its own, opened per tile
// from the relation's saved buffer state, so any number of joins and
// queries may run concurrently on the same relations and page accesses
// are accounted per call.
//
// The processor executes the paper's three steps: an R*-tree MBR-join, a
// geometric filter on conservative and progressive approximations
// (5-corner and maximum enclosed rectangle by default) and an exact
// geometry step on TR*-trees over trapezoid decompositions. Each
// predicate — Intersects, Contains, WithinDistance(ε) — specializes all
// three steps; see the Predicate documentation.
package spatialjoin

import (
	"context"
	"io"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/shard"
	"spatialjoin/internal/storage"
)

// Geometry types.
type (
	// Point is a location in the two-dimensional data space.
	Point = geom.Point
	// Rect is an axis-parallel rectangle (an MBR).
	Rect = geom.Rect
	// Polygon is a polygonal region with optional holes.
	Polygon = geom.Polygon
	// Ring is a simple closed polygonal chain.
	Ring = geom.Ring
)

// Join processor types.
type (
	// Config selects the approximations, exact engine and storage
	// parameters of the processor.
	Config = multistep.Config
	// Relation is a preprocessed input of the join: its objects
	// partitioned into Z-order tiles, each tile with its own R*-tree and
	// page buffer. One tile is the paper's relation; object IDs are the
	// positions in the polygon slice whatever the tile count.
	Relation = shard.Sharded
	// Pair is one element of a join response set.
	Pair = multistep.Pair
	// Stats reports per-step measurements of one join: the sums over the
	// tile-pair sub-joins, and the breakdown per tile pair. The
	// candidate, filter, exact and result counters do not depend on the
	// tile count; page accesses and object fetches are per-tile totals.
	Stats = shard.JoinStats
	// Engine selects the exact geometry algorithm.
	Engine = multistep.Engine
	// Predicate is the spatial relationship a Join or Query evaluates —
	// Intersects, Contains or WithinDistance(ε). Each predicate
	// specializes all three steps of the multi-step processor.
	Predicate = multistep.Predicate
	// Option configures one Join or Query call (predicate, workers,
	// streaming, limits, targets).
	Option = multistep.Option
	// QueryResult is the answer of Query. IDs are in ascending order;
	// Stats sums the routed tiles' per-step measurements.
	QueryResult = shard.QueryResult
	// Neighbor is one nearest-neighbour result: object ID and exact
	// region distance.
	Neighbor = multistep.Neighbor
	// ApproximationKind identifies a conservative or progressive
	// approximation of section 3 of the paper.
	ApproximationKind = approx.Kind
	// MapConfig parameterizes the synthetic cartographic data generator.
	MapConfig = data.MapConfig
	// BufferPolicy selects the page replacement policy of the R*-tree
	// buffers (Config.BufferPolicy).
	BufferPolicy = storage.Policy
)

// Buffer replacement policies.
const (
	PolicyLRU   = storage.LRU
	PolicyFIFO  = storage.FIFO
	PolicyClock = storage.Clock
)

// Exact engines.
const (
	EngineQuadratic  = multistep.EngineQuadratic
	EnginePlaneSweep = multistep.EnginePlaneSweep
	EngineTRStar     = multistep.EngineTRStar
)

// Approximation kinds.
const (
	MBR  = approx.MBR
	RMBR = approx.RMBR
	CH   = approx.CH
	C4   = approx.C4
	C5   = approx.C5
	MBC  = approx.MBC
	MBE  = approx.MBE
	MEC  = approx.MEC
	MER  = approx.MER
)

// NewPolygon builds a polygon from an outer boundary and optional holes.
func NewPolygon(outer []Point, holes ...[]Point) *Polygon {
	return geom.NewPolygon(outer, holes...)
}

// DefaultConfig returns the paper's recommended configuration (5-corner +
// MER filter, TR*-tree exact engine with node capacity 3, 4 KB pages).
func DefaultConfig() Config { return multistep.DefaultConfig() }

// NewRelation preprocesses a relation for joining under cfg: it sorts
// the polygons along the Z-order curve, cuts them into at most tiles
// balanced runs (the count clamps to [1, len(polys)]; 1 is the paper's
// single R*-tree), computes the configured approximations of every
// polygon and builds each tile's R*-tree.
func NewRelation(name string, polys []*Polygon, tiles int, cfg Config) *Relation {
	return shard.Build(name, polys, tiles, cfg)
}

// Predicates of the unified query API.

// Intersects is the paper's primary predicate: the regions share at
// least one point. It is the default of Join and Query.
func Intersects() Predicate { return multistep.Intersects() }

// Contains is the inclusion predicate: the R-side region contains the
// S-side region.
func Contains() Predicate { return multistep.Contains() }

// WithinDistance is the ε-join predicate: the regions lie within
// Euclidean distance eps of each other. WithinDistance(0) is equivalent
// to Intersects.
func WithinDistance(eps float64) Predicate { return multistep.WithinDistance(eps) }

// ParsePredicate parses "intersects", "contains" or "within" (with the
// distance bound supplied separately).
func ParsePredicate(name string, eps float64) (Predicate, error) {
	return multistep.ParsePredicate(name, eps)
}

// Options of the unified query API.

// WithPredicate selects the spatial predicate (default Intersects).
func WithPredicate(p Predicate) Option { return multistep.WithPredicate(p) }

// WithConfig overrides the processor configuration (default: the
// relations' build configuration).
func WithConfig(cfg Config) Option { return multistep.WithConfig(cfg) }

// WithWorkers sets a join's worker count (≤ 0: GOMAXPROCS).
func WithWorkers(n int) Option { return multistep.WithWorkers(n) }

// WithStream streams response pairs to emit as they are decided, one
// call at a time, instead of collecting them; no response pair is held.
func WithStream(emit func(Pair)) Option { return multistep.WithStream(emit) }

// WithBufferless discards the response set and returns statistics only.
func WithBufferless() Option { return multistep.WithBufferless() }

// WithLimit caps the number of response pairs Join returns (the sorted
// (A, B)-prefix; statistics always reflect the complete join).
func WithLimit(n int) Option { return multistep.WithLimit(n) }

// ForWindow targets Query at a window.
func ForWindow(w Rect) Option { return multistep.ForWindow(w) }

// ForPoint targets Query at a point.
func ForPoint(p Point) Option { return multistep.ForPoint(p) }

// ForNearest targets Query at the k objects closest to p by exact
// region distance.
func ForNearest(p Point, k int) Option { return multistep.ForNearest(p, k) }

// Adaptive planning (internal/plan). Planning is opt-in: a bare Join
// runs the relations' build configuration verbatim, WithPlan lets the
// planner resolve the options the caller left unset.
type (
	// Plan describes the execution configuration one call ran (or would
	// run) under, with the planner's predictions when planned.
	Plan = multistep.Plan
	// Explain is the EXPLAIN record of one join, summed over its tile
	// pairs: the plan and, after execution, the measured counts and
	// prediction errors.
	Explain = multistep.Explain
	// ExplainResult is what ExplainJoin returns: the aggregate Explain
	// plus the plan record of every tile pair.
	ExplainResult = shard.ExplainResult
)

// WithPlan resolves the options the caller left unset — exact engine,
// filter setting, worker count — through the planner, per tile pair:
// the TR*-tree engine, the filter on and GOMAXPROCS workers wherever the
// relations' build configuration allows. Explicit options always win: WithConfig pins the engine and
// filter, WithWorkers pins the workers, and a fully pinned planned join
// executes bit-identically to the unplanned call.
func WithPlan() Option { return multistep.WithPlan() }

// WithExplain records the resolved plan and, after execution, the
// predicted-vs-actual error into *ex.
func WithExplain(ex *Explain) Option { return multistep.WithExplain(ex) }

// ExplainJoin plans a join exactly as Join with the same options would —
// the EXPLAIN verb. Each tile pair is planned from its own tiles'
// statistics, so skewed tiles legitimately show different engines or
// worker counts. Without run nothing executes; with run the join
// executes without collecting pairs and the records carry the measured
// counts and prediction errors.
func ExplainJoin(ctx context.Context, r, s *Relation, run bool, opts ...Option) (ExplainResult, error) {
	return shard.Explain(ctx, r, s, run, opts...)
}

// Join runs the multi-step spatial join of r and s under the configured
// predicate (default Intersects), one sub-join per pair of tiles whose
// MBRs can hold a qualifying pair, and returns the response set sorted
// by (A, B) with per-step statistics; WithLimit is a prefix of that
// order. Cancelling ctx stops every sub-join's workers at their next
// node pair and surfaces ctx.Err().
func Join(ctx context.Context, r, s *Relation, opts ...Option) ([]Pair, Stats, error) {
	return shard.Join(ctx, r, s, opts...)
}

// Query runs a multi-step query on one relation: a window query
// (ForWindow), a point query (ForPoint), an ε-range query (either target
// with WithinDistance), or a k-nearest-objects query (ForNearest). It
// routes to the tiles that can contribute and merges their answers; IDs
// come back ascending. Cancellation follows Join.
func Query(ctx context.Context, r *Relation, opts ...Option) (QueryResult, error) {
	return shard.Query(ctx, r, opts...)
}

// GenerateMap produces a deterministic synthetic cartographic relation: a
// tiling of county-like polygons with fractal boundaries (see
// internal/data for the knobs).
func GenerateMap(cfg MapConfig) []*Polygon { return data.GenerateMap(cfg) }

// ShiftedCopy returns the paper's strategy A counterpart of a relation: a
// copy shifted diagonally by the given fraction of the average object
// extent.
func ShiftedCopy(rel []*Polygon, fraction float64) []*Polygon {
	return data.StrategyA(rel, fraction)
}

// RandomizedCopy returns the paper's strategy B counterpart: objects
// randomly shifted and rotated, rescaled so their areas sum to the
// data-space area.
func RandomizedCopy(rel []*Polygon, seed int64) []*Polygon {
	return data.StrategyB(rel, seed)
}

// Relation store errors.
var (
	// ErrBadRelationStore reports a tile file of a relation store that is
	// corrupt or of another format version.
	ErrBadRelationStore = multistep.ErrBadRelationStore
	// ErrBadShardManifest reports a store manifest that is corrupt, of
	// another format version or at odds with the tile files beside it,
	// or a store path that is a file.
	ErrBadShardManifest = shard.ErrBadManifest
	// ErrConfigMismatch reports a relation store built under a different
	// configuration than it is being opened with, or a join of relations
	// built under different configurations.
	ErrConfigMismatch = multistep.ErrConfigMismatch
)

// SaveRelation persists a fully preprocessed relation as a store
// directory: one file per tile — polygons, approximations, the R*-tree
// in page-granular layout, its buffer state and (under the TR*-tree
// engine) every object's TR*-tree — plus a manifest with the tile MBRs,
// the object ID mapping and the fingerprint of the configuration the
// relation was built under. No planner statistics are stored: every open
// derives them. OpenRelation reopens it without re-running NewRelation.
func SaveRelation(dir string, rel *Relation) error { return shard.Save(dir, rel) }

// OpenRelation reopens a store directory written by SaveRelation under
// the same cfg; a store built under a different configuration fails
// with ErrConfigMismatch. A store of another format version, or a
// single-file store, is refused with ErrBadRelationStore or
// ErrBadShardManifest, whose text names the fix: rebuild it with
// cmd/datagen. Joins on the reopened relation produce the identical
// response set and identical statistics, page accesses included, as on
// the originally built one.
func OpenRelation(path string, cfg Config) (*Relation, error) { return shard.Open(path, cfg) }

// WritePolygons persists a relation in the compact binary format of
// cmd/datagen.
func WritePolygons(w io.Writer, rel []*Polygon) error {
	return data.WriteRelation(w, rel)
}

// ReadPolygons loads a relation written by WritePolygons.
func ReadPolygons(r io.Reader) ([]*Polygon, error) {
	return data.ReadRelation(r)
}
