package shard

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/resilience"
	"spatialjoin/internal/resilience/fault"
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
// Cancellation fans out exactly as in Join.
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

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type tileFailure struct {
		tile int
		err  error
	}
	var (
		mu        sync.Mutex
		firstErr  error
		failures  []tileFailure
		ids       []int32
		neighbors []multistep.Neighbor
		stats     QueryStats
	)
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	var wg sync.WaitGroup
	for _, t := range tiles {
		wg.Add(1)
		go func(t *Tile) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			// The sub-query body is a recovery boundary: a panic inside
			// one tile's traversal becomes this tile's error instead of
			// killing the process.
			err := func() (err error) {
				defer resilience.RecoverTo(&err, "tile-query")
				if ferr := fault.Check("tile-query"); ferr != nil {
					return ferr
				}
				var key QueryTileKey
				if tc != nil {
					key = queryTileKey(t.Index, res)
					if cr, ok := tc.GetQueryTile(key); ok {
						mergeTileResult(&mu, t, cr, res.Explain != nil, &ids, &neighbors, &stats)
						return nil
					}
				}
				// The resolved options, copied for this tile: its own session,
				// the limit lifted to the merge layer, and its own Explain —
				// the caller's capture target must not be written by N
				// goroutines. The caching path always captures one, so a
				// cached sub-result can serve a later request that wants the
				// plan echo.
				sess := t.Rel.NewSession()
				sub := res
				sub.AxR, sub.Limit, sub.Explain = sess, -1, nil
				if res.Explain != nil || tc != nil {
					sub.Explain = new(multistep.Explain)
				}
				qr, qerr := multistep.RunQuery(ctx, t.Rel, sub)
				if qerr != nil {
					return qerr
				}
				tr := QueryTileResult{IDs: qr.IDs, Neighbors: qr.Neighbors, Stats: qr.Stats, PageTouches: sess.Accesses(), Explain: sub.Explain}
				if tc != nil {
					tc.PutQueryTile(key, tr)
				}
				mergeTileResult(&mu, t, tr, res.Explain != nil, &ids, &neighbors, &stats)
				return nil
			}()
			if err == nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			// Degradation is for broken tiles only: cancellation and
			// deadline expiry always fail the whole query.
			if res.Partial && parent.Err() == nil &&
				!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				failures = append(failures, tileFailure{tile: t.Index, err: err})
				return
			}
			if firstErr == nil {
				firstErr = err
				cancel()
			}
		}(t)
	}
	wg.Wait()

	if firstErr == nil {
		firstErr = parent.Err()
	}
	if firstErr != nil {
		return QueryResult{}, firstErr
	}
	slices.SortFunc(failures, func(a, b tileFailure) int { return a.tile - b.tile })
	if len(failures) > 0 && len(stats.Tiles) == 0 {
		// Every routed tile failed: nothing to degrade to.
		return QueryResult{}, failures[0].err
	}
	slices.SortFunc(stats.Tiles, func(a, b TileQueryStats) int { return a.Tile - b.Tile })
	if res.Explain != nil {
		subStats := make([]SubJoinStats, 0, len(stats.Tiles))
		for _, t := range stats.Tiles {
			subStats = append(subStats, SubJoinStats{Explain: t.Explain})
		}
		*res.Explain = aggregateExplain(subStats, false)
	}

	var out QueryResult
	out.Stats = stats
	for _, f := range failures {
		out.Failed = append(out.Failed, TileFailure{Tile: f.tile, Err: f.err.Error()})
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

// mergeTileResult folds one tile's sub-result — fresh or cached — into
// the merge state under mu. The sub-result's local IDs are translated
// through the tile's Global table on every use (the cached slices are
// only ever read), and its Explain is surfaced only when the caller
// asked for one, so cached and uncached merges build identical state.
func mergeTileResult(mu *sync.Mutex, t *Tile, tr QueryTileResult, wantExplain bool,
	ids *[]int32, neighbors *[]multistep.Neighbor, stats *QueryStats) {
	mu.Lock()
	defer mu.Unlock()
	for _, id := range tr.IDs {
		*ids = append(*ids, t.Global[id])
	}
	for _, n := range tr.Neighbors {
		*neighbors = append(*neighbors, multistep.Neighbor{ID: t.Global[n.ID], Dist: n.Dist})
	}
	ex := tr.Explain
	if !wantExplain {
		ex = nil
	}
	stats.Tiles = append(stats.Tiles, TileQueryStats{Tile: t.Index, Stats: tr.Stats, PageTouches: tr.PageTouches, Explain: ex})
	stats.Candidates += tr.Stats.Candidates
	stats.FilterHits += tr.Stats.FilterHits
	stats.FilterFalseHits += tr.Stats.FilterFalseHits
	stats.ExactTested += tr.Stats.ExactTested
	stats.PageAccesses += tr.Stats.PageAccesses
	stats.PageTouches += tr.PageTouches
}
