package shard

import (
	"context"
	"slices"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
)

// TileQueryStats is the accounting of one tile's sub-query.
type TileQueryStats struct {
	// Tile is the tile index.
	Tile int
	// Stats is the sub-query's own accounting on the tile's session.
	Stats multistep.WindowStats
	// PageTouches counts all page touches (hits and misses) of the
	// tile's session — Stats.PageAccesses counts only the misses.
	PageTouches int64
	// Explain is the sub-query's plan record, captured when the caller
	// passed WithExplain (each tile plans its filter setting from its
	// own statistics). Nil otherwise. Excluded from JSON: the wall-time
	// field would make otherwise-identical responses diverge.
	Explain *multistep.Explain `json:"-"`
}

// QueryStats aggregates a scatter-gather query. The embedded
// WindowStats sums the sub-queries: the partition is disjoint, so the
// candidate, filter and exact counters equal the unsharded run's, and
// PageAccesses is the total of real per-tile buffer misses.
// ResultObjects counts the merged (deduplicated, limit-truncated)
// response, not the per-tile sum.
type QueryStats struct {
	multistep.WindowStats
	// PageTouches totals all page touches (hits and misses) across the
	// routed tiles.
	PageTouches int64
	// Tiles lists each routed sub-query, sorted by tile index.
	Tiles []TileQueryStats
}

// TileFailure records one tile whose sub-query failed under
// WithPartialResults: the merged answer omits its objects.
type TileFailure struct {
	Tile int    `json:"tile"`
	Err  string `json:"err"`
}

// QueryResult is the merged answer of a scatter-gather query. IDs are
// global object IDs in ascending order (the canonical merged order — the
// single-relation path reports tree-delivery order instead); a WithLimit
// cap is the prefix of that order. Neighbors are sorted by (distance,
// global ID) as in the single-relation path.
//
// Under WithPartialResults a tile failure does not fail the query:
// Degraded is set, Failed lists the lost tiles (sorted by index), and
// the answer covers only the surviving tiles. Cancellation and deadline
// expiry still fail the whole query — a partial answer is for broken
// tiles, not for impatient clients — and a query where every routed
// tile failed returns the first failure rather than an empty answer.
type QueryResult struct {
	IDs       []int32
	Neighbors []multistep.Neighbor
	Stats     QueryStats
	Degraded  bool
	Failed    []TileFailure
}

// Query runs a window, point, ε-range or k-nearest-objects query against
// a sharded relation. Window and point targets route to the tiles whose
// MBR intersects the (ε-expanded) target; nearest targets fan out to
// every tile and merge the per-tile top-k — each tile's top-k is a
// superset of its members of the global top-k, so the merge is exact.
//
// The caller's WithLimit is lifted to the merge layer (sub-queries run
// uncapped): per-tile truncation happens in tree-delivery order, which
// cannot be reconciled with the global sorted-prefix contract.
//
// The sub-queries run through fanOut, as Join's sub-joins do, and
// cancellation fans out the same way.
func Query(ctx context.Context, r *Sharded, opts ...multistep.Option) (QueryResult, error) {
	return QueryCached(ctx, r, nil, opts...)
}

// QueryCached is Query with a per-tile sub-result cache: each routed
// tile's sub-query is looked up in tc before running, and fresh
// sub-results are stored after. A nil tc is exactly Query. Cached tiles
// contribute their original run's statistics and plan record, so the
// merged result is identical to an uncached run; the caller (the
// serving layer) must scope tc to this exact relation instance — see
// QueryTileCache.
func QueryCached(ctx context.Context, r *Sharded, tc QueryTileCache, opts ...multistep.Option) (QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := multistep.ResolveOptions(opts)
	if err := res.Pred.Validate(); err != nil {
		return QueryResult{}, err
	}
	if err := res.ValidateQueryTarget(); err != nil {
		return QueryResult{}, err
	}

	var tiles []*Tile
	if res.Nearest {
		tiles = r.Tiles
	} else {
		var target geom.Rect
		if res.Window != nil {
			target = *res.Window
		} else {
			target = geom.Rect{MinX: res.Point.X, MinY: res.Point.Y, MaxX: res.Point.X, MaxY: res.Point.Y}
		}
		grown := target.Expand(res.Pred.Epsilon())
		for _, t := range r.Tiles {
			if t.MBR.Intersects(grown) {
				tiles = append(tiles, t)
			}
		}
	}

	// outs[k] is the outcome of tiles[k]'s sub-query: its result or,
	// under WithPartialResults, its failure.
	type tileOutcome struct {
		tr  QueryTileResult
		err error
	}
	outs := make([]tileOutcome, len(tiles))
	var failed func(int, error)
	if res.Partial {
		failed = func(k int, err error) { outs[k].err = err }
	}
	err := fanOut(ctx, len(tiles), "tile-query", failed, func(ctx context.Context, k int) error {
		t := tiles[k]
		var key QueryTileKey
		if tc != nil {
			key = queryTileKey(t.Index, res)
			if cr, ok := tc.GetQueryTile(key); ok {
				outs[k].tr = cr
				return nil
			}
		}
		// The resolved options, copied for this tile: its own session,
		// the limit lifted to the merge layer, and its own Explain — the
		// caller's capture target must not be written by N goroutines.
		// The caching path always captures one, so a cached sub-result
		// can serve a later request that wants the plan echo.
		sess := t.Rel.NewSession()
		sub := res
		sub.AxR, sub.Limit, sub.Explain = sess, -1, nil
		if res.Explain != nil || tc != nil {
			sub.Explain = new(multistep.Explain)
		}
		qr, err := multistep.RunQuery(ctx, t.Rel, sub)
		if err != nil {
			return err
		}
		outs[k].tr = QueryTileResult{IDs: qr.IDs, Neighbors: qr.Neighbors, Stats: qr.Stats, PageTouches: sess.Accesses(), Explain: sub.Explain}
		if tc != nil {
			tc.PutQueryTile(key, outs[k].tr)
		}
		return nil
	})
	if err != nil {
		return QueryResult{}, err
	}

	// The merge, in tile order. A sub-result's local IDs are translated
	// through its tile's Global table (cached slices are only ever read),
	// and its Explain is surfaced only when the caller asked for one, so
	// cached and uncached merges build identical results.
	var (
		out       QueryResult
		ids       []int32
		neighbors []multistep.Neighbor
		explains  []*multistep.Explain
	)
	stats := &out.Stats
	for k, t := range tiles {
		if err := outs[k].err; err != nil {
			out.Failed = append(out.Failed, TileFailure{Tile: t.Index, Err: err.Error()})
			continue
		}
		tr := &outs[k].tr
		for _, id := range tr.IDs {
			ids = append(ids, t.Global[id])
		}
		for _, n := range tr.Neighbors {
			neighbors = append(neighbors, multistep.Neighbor{ID: t.Global[n.ID], Dist: n.Dist})
		}
		var ex *multistep.Explain
		if res.Explain != nil {
			ex = tr.Explain
			explains = append(explains, ex)
		}
		stats.Tiles = append(stats.Tiles, TileQueryStats{Tile: t.Index, Stats: tr.Stats, PageTouches: tr.PageTouches, Explain: ex})
		stats.Candidates += tr.Stats.Candidates
		stats.FilterHits += tr.Stats.FilterHits
		stats.FilterFalseHits += tr.Stats.FilterFalseHits
		stats.ExactTested += tr.Stats.ExactTested
		stats.PageAccesses += tr.Stats.PageAccesses
		stats.PageTouches += tr.PageTouches
	}
	if len(out.Failed) > 0 && len(stats.Tiles) == 0 {
		// Every routed tile failed: nothing to degrade to.
		return QueryResult{}, outs[0].err
	}
	if res.Explain != nil {
		*res.Explain = aggregateExplain(explains, false)
	}
	out.Degraded = len(out.Failed) > 0
	if res.Nearest {
		slices.SortFunc(neighbors, multistep.CompareNeighbors)
		k := res.NearestK
		if k > len(neighbors) {
			k = len(neighbors)
		}
		if k < 0 {
			k = 0
		}
		out.Neighbors = neighbors[:k]
		out.Stats.ResultObjects = int64(len(out.Neighbors))
		return out, nil
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	if res.Limit >= 0 && len(ids) > res.Limit {
		ids = ids[:res.Limit]
	}
	out.IDs = ids
	out.Stats.ResultObjects = int64(len(ids))
	return out, nil
}
