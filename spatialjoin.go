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
// Minimal usage — one context-aware entry point per query shape, with
// the predicate and every execution concern as options:
//
//	cfg := spatialjoin.DefaultConfig()
//	r := spatialjoin.NewRelation("cities", cityPolygons, cfg)
//	s := spatialjoin.NewRelation("forests", forestPolygons, cfg)
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
	// Relation is a preprocessed input of the join.
	Relation = multistep.Relation
	// Pair is one element of a join response set.
	Pair = multistep.Pair
	// Stats reports per-step measurements of one join.
	Stats = multistep.Stats
	// WindowStats reports per-step measurements of one window, point,
	// ε-range or nearest query.
	WindowStats = multistep.WindowStats
	// Engine selects the exact geometry algorithm.
	Engine = multistep.Engine
	// Predicate is the spatial relationship a Join or Query evaluates —
	// Intersects, Contains or WithinDistance(ε). Each predicate
	// specializes all three steps of the multi-step processor.
	Predicate = multistep.Predicate
	// Option configures one Join or Query call (predicate, workers,
	// streaming, sessions, limits, targets).
	Option = multistep.Option
	// QueryResult is the answer of the unified Query entry point.
	QueryResult = multistep.QueryResult
	// ApproximationKind identifies a conservative or progressive
	// approximation of section 3 of the paper.
	ApproximationKind = approx.Kind
	// MapConfig parameterizes the synthetic cartographic data generator.
	MapConfig = data.MapConfig
	// BufferPolicy selects the page replacement policy of the R*-tree
	// buffers (Config.BufferPolicy).
	BufferPolicy = storage.Policy
	// Accessor is the page-access context of one query. A Relation's
	// shared buffer is the sequential single-query context; Session is
	// the per-query context that makes concurrent queries safe.
	Accessor = storage.Accessor
	// Session is a per-query page-access context: a private replacement
	// simulation with isolated hit/miss counters, created from a
	// relation with Relation.NewSession. Sessions make one opened
	// Relation safe for any number of concurrent queries (pass them via
	// the WithSessions/WithSession options).
	Session = storage.Session
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

// NewRelation preprocesses a relation for joining under cfg: it computes
// the configured approximations of every polygon and builds the R*-tree.
func NewRelation(name string, polys []*Polygon, cfg Config) *Relation {
	return multistep.NewRelation(name, polys, cfg)
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

// WithWorkers sets the join pipeline's worker count (≤ 0: GOMAXPROCS).
func WithWorkers(n int) Option { return multistep.WithWorkers(n) }

// WithStream streams response pairs to emit as they are decided instead
// of collecting them; memory stays bounded by the pipeline depth.
func WithStream(emit func(Pair)) Option { return multistep.WithStream(emit) }

// WithBufferless discards the response set and returns statistics only.
func WithBufferless() Option { return multistep.WithBufferless() }

// WithSessions routes each side's page visits through explicit
// per-query access contexts (Relation.NewSession), making the call safe
// to run concurrently with other queries on the same relations.
func WithSessions(axR, axS Accessor) Option { return multistep.WithSessions(axR, axS) }

// WithSession is WithSessions for the single-relation Query entry point.
func WithSession(ax Accessor) Option { return multistep.WithSession(ax) }

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
// cost-based planner resolve the options the caller left unset.
type (
	// Plan describes the execution configuration one call ran (or would
	// run) under, with the planner's predictions when planned.
	Plan = multistep.Plan
	// Explain is the EXPLAIN record of one join: the plan and, after
	// execution, the measured counts and prediction errors.
	Explain = multistep.Explain
)

// WithPlan resolves the options the caller left unset — exact engine,
// filter setting, worker count — through the cost-based planner.
// Explicit options always win: WithConfig pins the engine and filter,
// WithWorkers pins the workers, and a fully pinned planned join
// executes bit-identically to the unplanned call.
func WithPlan() Option { return multistep.WithPlan() }

// WithExplain records the resolved plan and, after execution, the
// predicted-vs-actual error into *ex.
func WithExplain(ex *Explain) Option { return multistep.WithExplain(ex) }

// ExplainJoin resolves and plans a join exactly as Join with the same
// options would, without executing it — the EXPLAIN verb.
func ExplainJoin(r, s *Relation, opts ...Option) (Explain, error) {
	return multistep.ExplainJoin(r, s, opts...)
}

// Join runs the multi-step spatial join of r and s under the configured
// predicate (default Intersects) and returns the response set sorted by
// (A, B) with per-step statistics. Cancelling ctx stops the pipeline —
// traversal workers, filter/exact pool and collector — and surfaces
// ctx.Err(). Without WithSessions the page accounting runs on the shared
// tree buffers (the paper's sequential mode, one query at a time); with
// per-query sessions on both sides any number of joins and queries run
// concurrently on the same relations.
func Join(ctx context.Context, r, s *Relation, opts ...Option) ([]Pair, Stats, error) {
	return multistep.Join(ctx, r, s, opts...)
}

// Query runs a multi-step query on one relation: a window query
// (ForWindow), a point query (ForPoint), an ε-range query (either target
// with WithinDistance), or a k-nearest-objects query (ForNearest).
// Accounting and cancellation follow Join.
func Query(ctx context.Context, r *Relation, opts ...Option) (QueryResult, error) {
	return multistep.Query(ctx, r, opts...)
}

// Neighbor is one nearest-neighbour result: object ID and exact region
// distance.
type Neighbor = multistep.Neighbor

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
	// ErrBadRelationStore reports a corrupt relation store.
	ErrBadRelationStore = multistep.ErrBadRelationStore
	// ErrConfigMismatch reports a relation store built under a different
	// configuration than it is being opened with.
	ErrConfigMismatch = multistep.ErrConfigMismatch
)

// SaveRelation persists a fully preprocessed relation — polygons,
// approximations, the R*-tree in page-granular layout and (under the
// TR*-tree engine) every object's TR*-tree — so it can be reopened
// instantly with OpenRelation instead of re-running NewRelation. The
// relation must have been built with cfg; the store records a config
// fingerprint and refuses to open under a different configuration.
func SaveRelation(w io.Writer, rel *Relation, cfg Config) error {
	return multistep.SaveRelation(w, rel, cfg)
}

// OpenRelation restores a relation saved by SaveRelation under the same
// cfg. Joins on the restored relation produce the identical response set
// and identical statistics (including buffer hit/miss counts) as on the
// originally built relation.
func OpenRelation(r io.Reader, cfg Config) (*Relation, error) {
	return multistep.OpenRelation(r, cfg)
}

// SaveRelationFile is SaveRelation onto a paged store file
// (storage.FileStore layout) at path.
func SaveRelationFile(path string, rel *Relation, cfg Config) error {
	return multistep.SaveRelationFile(path, rel, cfg)
}

// OpenRelationFile opens a relation store written by SaveRelationFile,
// reading it page by page through a buffered disk-backed store.
func OpenRelationFile(path string, cfg Config) (*Relation, error) {
	return multistep.OpenRelationFile(path, cfg)
}

// Sharded relations: one logical relation partitioned into N Z-order
// tiles behind a scatter-gather layer (internal/shard). The sharded
// entry points preserve the single-relation contracts — globally
// (A, B)-sorted join responses, limit as the global sorted prefix,
// cancellation fanned out to every tile, and candidate/filter/exact
// statistics summing exactly to the unsharded run. See DESIGN.md §10.
type (
	// Sharded is a relation partitioned into Z-order tiles behind one
	// facade; build with BuildSharded or wrap an existing relation with
	// ShardedFromRelation.
	Sharded = shard.Sharded
	// Tile is one shard of a partitioned relation: a complete Relation
	// over the tile's objects plus the mapping back to global IDs.
	Tile = shard.Tile
	// ShardedJoinStats aggregates a scatter-gather join: summed Stats
	// plus the per-tile-pair breakdown.
	ShardedJoinStats = shard.JoinStats
	// SubJoinStats is the accounting of one tile-pair sub-join.
	SubJoinStats = shard.SubJoinStats
	// ShardedQueryStats aggregates a scatter-gather query: summed
	// WindowStats plus the per-tile breakdown.
	ShardedQueryStats = shard.QueryStats
	// TileQueryStats is the accounting of one tile's sub-query.
	TileQueryStats = shard.TileQueryStats
	// ShardedQueryResult is the merged answer of QuerySharded; IDs are
	// global object IDs in ascending order.
	ShardedQueryResult = shard.QueryResult
)

// ErrBadShardManifest reports a corrupt sharded-store manifest.
var ErrBadShardManifest = shard.ErrBadManifest

// BuildSharded partitions polys into at most shards Z-order tiles and
// preprocesses each tile as its own relation under cfg (the shard count
// clamps to [1, len(polys)]).
func BuildSharded(name string, polys []*Polygon, shards int, cfg Config) *Sharded {
	return shard.Build(name, polys, shards, cfg)
}

// ShardedFromRelation wraps an existing relation as a one-tile Sharded,
// so monolithic and partitioned relations share one query path.
func ShardedFromRelation(rel *Relation) *Sharded { return shard.FromRelation(rel) }

// JoinSharded runs the multi-step join of two sharded relations as
// tile-pair sub-joins and merges the results; response set, ordering,
// limit semantics and per-step statistics match Join on the unsharded
// relations.
func JoinSharded(ctx context.Context, r, s *Sharded, opts ...Option) ([]Pair, ShardedJoinStats, error) {
	return shard.Join(ctx, r, s, opts...)
}

// QuerySharded runs a window, point, ε-range or nearest query against a
// sharded relation, routing to the tiles that can contribute and merging
// their answers.
func QuerySharded(ctx context.Context, r *Sharded, opts ...Option) (ShardedQueryResult, error) {
	return shard.Query(ctx, r, opts...)
}

// Batched joins: several join requests over the same relation pair run
// ONE synchronized R*-tree traversal, with every request's predicate
// evaluated per candidate pair and the results demultiplexed. Each
// request's response set, ordering, limit semantics and candidate-level
// statistics match its solo run exactly. See DESIGN.md §12.
type (
	// BatchResult is one request's outcome from JoinBatch: its pairs and
	// its per-step statistics, as if it had run alone.
	BatchResult = multistep.BatchResult
	// ShardedBatchOutcome is one request's outcome from
	// JoinShardedBatch: globally merged pairs plus aggregated stats.
	ShardedBatchOutcome = shard.BatchOutcome
)

// MaxBatchItems is the cap on requests per batched traversal; JoinBatch
// rejects larger batches with ErrBatchMismatch's sibling
// ErrBatchTooLarge, while JoinShardedBatch chunks transparently.
const MaxBatchItems = multistep.MaxBatchItems

// Batch errors.
var (
	// ErrBatchMismatch reports batched requests that cannot share one
	// traversal (different step-1 ε).
	ErrBatchMismatch = multistep.ErrBatchMismatch
	// ErrBatchTooLarge reports a JoinBatch of more than MaxBatchItems.
	ErrBatchTooLarge = multistep.ErrBatchTooLarge
)

// JoinBatch runs up to MaxBatchItems join requests over one relation
// pair as a single synchronized traversal. items[i] holds the i-th
// request's options (predicate, workers, limit, explain...); the i-th
// result corresponds to it.
func JoinBatch(ctx context.Context, r, s *Relation, items [][]Option) ([]BatchResult, error) {
	return multistep.JoinBatch(ctx, r, s, nil, nil, items)
}

// JoinShardedBatch is JoinBatch over sharded relations: each tile pair
// is traversed once for all requests, and every request's pairs are
// merged and sorted globally as in JoinSharded. Batches larger than
// MaxBatchItems are chunked transparently.
func JoinShardedBatch(ctx context.Context, r, s *Sharded, items [][]Option) ([]ShardedBatchOutcome, error) {
	return shard.JoinBatch(ctx, r, s, nil, items)
}

// Sharded EXPLAIN types.
type (
	// ShardedExplain is the EXPLAIN record of a scatter-gather join:
	// the aggregate plus the per-tile-pair plans.
	ShardedExplain = shard.ExplainResult
	// TileExplain is the plan record of one tile-pair sub-join.
	TileExplain = shard.TileExplain
)

// ExplainSharded plans (and with run, executes) a scatter-gather join
// and returns the aggregate plus per-tile-pair plan records. Each tile
// pair is planned independently from its own tiles' statistics, so
// skewed tiles legitimately show different engines or worker counts.
func ExplainSharded(ctx context.Context, r, s *Sharded, run bool, opts ...Option) (ShardedExplain, error) {
	return shard.Explain(ctx, r, s, run, opts...)
}

// SaveShardedStore persists a sharded relation as a store directory:
// one relation store file per tile plus a manifest with the tile MBRs,
// object counts, global ID mapping and the config fingerprint.
func SaveShardedStore(dir string, sh *Sharded) error { return shard.Save(dir, sh) }

// OpenShardedStore reopens a store directory written by
// SaveShardedStore under the same cfg; the manifest and every tile's
// own fingerprint must match or opening fails with ErrConfigMismatch.
func OpenShardedStore(dir string, cfg Config) (*Sharded, error) { return shard.Open(dir, cfg) }

// IsShardedStore reports whether path is a sharded store directory (a
// directory containing a manifest), as opposed to a single relation
// store file.
func IsShardedStore(path string) bool { return shard.IsStoreDir(path) }

// WritePolygons persists a relation in the compact binary format of
// cmd/datagen.
func WritePolygons(w io.Writer, rel []*Polygon) error {
	return data.WriteRelation(w, rel)
}

// ReadPolygons loads a relation written by WritePolygons.
func ReadPolygons(r io.Reader) ([]*Polygon, error) {
	return data.ReadRelation(r)
}
