package shard

import (
	"spatialjoin/internal/multistep"
)

// Per-tile(-pair) sub-result caching hooks. A sharded relation's
// scatter-gather layer runs every request as independent sub-joins and
// sub-queries on deterministic per-tile session snapshots, which makes
// those sub-results cacheable. The keys below discriminate on the same
// fields as the serving layer's whole-response keys — tile (pair),
// predicate, configuration override, plan mode, the requested worker
// count of a join, the target of a query — with one exception: a
// query's partial=1 flag is in its whole-response key only, so the same
// query asked with and without it shares tile entries. Any other
// request that misses the whole-response cache misses here too, unless
// its whole-response entry was evicted while its tile entries survived;
// and tile entries are Put before the whole-response entry built from
// them, so the byte-bounded LRU evicts them first. Measured on the
// repository benchmark: 0 hits in 133,729 tile-cache lookups (ROADMAP
// item 5, "Bytes", which also says why the layer is still here).
//
// The interfaces are implemented by the serving layer over its shared
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
	// Planned reports WithPlan: planned and pinned sub-queries may
	// resolve different filter settings.
	Planned bool
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

// JoinTileKey identifies one tile-pair sub-join within one sharded
// relation pair.
type JoinTileKey struct {
	// RTile and STile are the pair's tile indices.
	RTile, STile int
	// Pred is the predicate's canonical string form.
	Pred string
	// CfgFP fingerprints a WithConfig override; 0 without one.
	CfgFP uint64
	// Planned reports WithPlan.
	Planned bool
	// Workers is the *requested* worker count (0 when unset). It is part
	// of the identity because the sub-join's plan record — which feeds
	// the aggregated plan echo — depends on it, even though the pairs
	// and statistics do not.
	Workers int
}

// JoinTileResult is one tile pair's cached sub-join outcome.
type JoinTileResult struct {
	// Pairs is the tile pair's run of the response: global object IDs,
	// (A, B)-sorted — what the merge layer reads, whether the run was
	// just computed or comes from the cache.
	Pairs   []multistep.Pair
	Stats   multistep.Stats
	Explain *multistep.Explain
}

// JoinTileCache caches per-tile-pair sub-join results, with the same
// contract as QueryTileCache.
type JoinTileCache interface {
	GetJoinTile(JoinTileKey) (JoinTileResult, bool)
	PutJoinTile(JoinTileKey, JoinTileResult)
}

// queryTileKey builds the cache key of one tile's sub-query under the
// resolved options.
func queryTileKey(tile int, res multistep.Resolved) QueryTileKey {
	k := QueryTileKey{
		Tile:    tile,
		Pred:    res.Pred.String(),
		Planned: res.Plan,
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

// joinTileKey builds the cache key of one tile pair's sub-join under
// the resolved options.
func joinTileKey(ri, si int, res multistep.Resolved) JoinTileKey {
	k := JoinTileKey{
		RTile:   ri,
		STile:   si,
		Pred:    res.Pred.String(),
		Planned: res.Plan,
		Workers: res.Workers,
	}
	if res.Cfg != nil {
		k.CfgFP = multistep.ConfigFingerprint(*res.Cfg)
	}
	return k
}
