package shard

import (
	"spatialjoin/internal/multistep"
)

// Per-tile sub-query caching hooks. A sharded relation's scatter-gather
// layer runs every query as independent sub-queries on deterministic
// per-tile session snapshots, which makes those sub-results cacheable.
// The key below discriminates on the same fields as the serving layer's
// whole-response key — tile, predicate, configuration override, target —
// with one exception: a query's partial=1 flag is in its whole-response
// key only, so the same query asked with and without it shares tile
// entries. Any other request that misses the whole-response cache
// misses here too, unless its whole-response entry was evicted while
// its tile entries survived; and tile entries are Put before the
// whole-response entry built from them, so the byte-bounded LRU evicts
// them first. Measured on the repository benchmark: 0 hits in 133,729
// tile-cache lookups. It stays only until the benchmark's serve_scan
// warm-up, which sends requests until the cache first evicts, counts
// them instead (ROADMAP item 3(d)).
//
// The interface is implemented by the serving layer over its shared
// byte-bounded LRU (internal/mqe); shard itself stays storage-agnostic.
// Keys deliberately exclude the relation identity: the implementation
// scopes them (internal/serve prefixes the catalog entry's generation
// and config fingerprint), because only the layer that swaps relations
// can know when two *Sharded values are the same data.
//
// Cached sub-results carry the ORIGINAL run's statistics and plan
// record — the same policy as whole-response caching (see DESIGN.md
// §12).

// QueryTileKey identifies one tile's sub-query result within one
// sharded relation. The target geometry is spelled out (not hashed) so
// implementations can stringify it exactly.
type QueryTileKey struct {
	// Tile is the tile index within the sharded relation.
	Tile int
	// Nearest and K describe a nearest-neighbour sub-query; window and
	// point targets leave them zero.
	Nearest bool
	K       int
	// MinX..MaxY is the window (degenerate for point targets; the query
	// point for nearest targets, MinX=MaxX=X, MinY=MaxY=Y).
	MinX, MinY, MaxX, MaxY float64
	// Pred is the predicate's canonical string form ("intersects",
	// "contains", "within(ε)" with ε in shortest round-trip notation).
	Pred string
	// CfgFP fingerprints a WithConfig override; 0 without one (the
	// tile's build configuration, already pinned by the caller's scoped
	// prefix).
	CfgFP uint64
}

// QueryTileResult is one tile's cached sub-query outcome. IDs and
// neighbour IDs are tile-local (the merge layer translates through the
// tile's Global table on every use).
type QueryTileResult struct {
	IDs         []int32
	Neighbors   []multistep.Neighbor
	Stats       multistep.WindowStats
	PageTouches int64
	// Explain is the sub-query's plan record from the original run;
	// always captured on the caching path so a later request that wants
	// the plan echo can be served from cache.
	Explain *multistep.Explain
}

// QueryTileCache caches per-tile sub-query results. Implementations
// must be safe for concurrent use; Get must return a result whose
// slices the caller may read but not write.
type QueryTileCache interface {
	GetQueryTile(QueryTileKey) (QueryTileResult, bool)
	PutQueryTile(QueryTileKey, QueryTileResult)
}

// queryTileKey builds the cache key of one tile's sub-query under the
// resolved options.
func queryTileKey(tile int, res multistep.Resolved) QueryTileKey {
	k := QueryTileKey{
		Tile: tile,
		Pred: res.Pred.String(),
	}
	if res.Cfg != nil {
		k.CfgFP = multistep.ConfigFingerprint(*res.Cfg)
	}
	switch {
	case res.Nearest:
		k.Nearest = true
		k.K = res.NearestK
		k.MinX, k.MaxX = res.Point.X, res.Point.X
		k.MinY, k.MaxY = res.Point.Y, res.Point.Y
	case res.Window != nil:
		k.MinX, k.MinY = res.Window.MinX, res.Window.MinY
		k.MaxX, k.MaxY = res.Window.MaxX, res.Window.MaxY
	case res.Point != nil:
		k.MinX, k.MaxX = res.Point.X, res.Point.X
		k.MinY, k.MaxY = res.Point.Y, res.Point.Y
	}
	return k
}
