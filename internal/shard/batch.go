package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"spatialjoin/internal/multistep"
	"spatialjoin/internal/resilience"
	"spatialjoin/internal/resilience/fault"
)

// BatchOutcome is one request's result from JoinBatch: exactly what the
// corresponding solo Join would have returned.
type BatchOutcome struct {
	Pairs []multistep.Pair
	Stats JoinStats
}

// JoinBatch runs N join requests over the sharded relation pair (r, s)
// as shared work: the tile-pair routing happens once (all requests
// share one step-1 ε, so they route identically), and each eligible
// tile pair runs ONE batched synchronized traversal
// (multistep.JoinBatch) that serves every request, on one session pair
// per tile pair — each request still observes its solo per-tile page
// accounting because the shared traversal replays the solo trace.
// Results come back per request, merged exactly as Join merges:
// globally translated, (A, B)-sorted, compacted, limit-truncated.
//
// tc, when non-nil, caches tile-pair sub-results: requests whose
// per-tile-pair identity (predicate, config override, plan mode,
// requested workers) hits the cache skip that tile pair's share of the
// traversal entirely and contribute the original run's sub-statistics.
// Bufferless requests bypass the cache (their sub-results carry no
// pairs and must not be served to collecting requests).
//
// All requests must share the predicate's step-1 ε; WithStream is not
// supported (batched execution always collects). Groups larger than
// multistep.MaxBatchItems are chunked into successive batched
// traversals, preserving per-request order.
func JoinBatch(ctx context.Context, r, s *Sharded, tc JoinTileCache, items [][]multistep.Option) ([]BatchOutcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(items) == 0 {
		return nil, nil
	}
	if len(items) > multistep.MaxBatchItems {
		out := make([]BatchOutcome, 0, len(items))
		for start := 0; start < len(items); start += multistep.MaxBatchItems {
			end := min(start+multistep.MaxBatchItems, len(items))
			chunk, err := JoinBatch(ctx, r, s, tc, items[start:end])
			if err != nil {
				return nil, err
			}
			out = append(out, chunk...)
		}
		return out, nil
	}

	ress := make([]multistep.Resolved, len(items))
	for i, opts := range items {
		res := multistep.ResolveOptions(opts)
		if err := res.Pred.Validate(); err != nil {
			return nil, err
		}
		if res.Stream != nil {
			return nil, multistep.ErrBatchStream
		}
		if res.Cfg == nil && r.Fingerprint() != s.Fingerprint() {
			return nil, fmt.Errorf("shard: relations %q and %q were built under different configurations: %w",
				r.Name, s.Name, multistep.ErrConfigMismatch)
		}
		if i > 0 && res.Pred.Epsilon() != ress[0].Pred.Epsilon() {
			return nil, multistep.ErrBatchMismatch
		}
		ress[i] = res
	}

	eligible := eligiblePairs(r, s, ress[0].Pred.Epsilon())

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		// subs[k][i] is request i's outcome of sub-join eligible[k],
		// written by that sub-join's goroutine alone and merged after
		// all of them have stopped.
		subs = make([][]JoinTileResult, len(eligible))
	)
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	var wg sync.WaitGroup
	for k, e := range eligible {
		wg.Add(1)
		go func(k int, e tilePair) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			rt, st := r.Tiles[e.ri], s.Tiles[e.si]

			// Split the requests into tile-cache hits and the remainder
			// that shares this tile pair's batched traversal.
			tileRes := make([]JoinTileResult, len(items))
			var todo []int
			for i := range items {
				if tc != nil && !ress[i].Bufferless {
					if cr, ok := tc.GetJoinTile(joinTileKey(e.ri, e.si, ress[i])); ok {
						tileRes[i] = cr
						continue
					}
				}
				todo = append(todo, i)
			}

			if len(todo) > 0 {
				// The shared traversal is a recovery boundary: a panic in
				// this tile pair's batched sub-join becomes its error (and,
				// joins failing closed, every batched request's) instead of
				// killing the process.
				err := func() (err error) {
					defer resilience.RecoverTo(&err, "tile-join")
					if ferr := fault.Check("tile-join"); ferr != nil {
						return ferr
					}
					subItems := make([][]multistep.Option, len(todo))
					subExs := make([]*multistep.Explain, len(todo))
					for n, i := range todo {
						sub := make([]multistep.Option, 0, len(items[i])+2)
						sub = append(sub, items[i]...)
						sub = append(sub, multistep.WithLimit(-1))
						// Always capture the sub-join plan on the caching path
						// (see QueryCached); a fresh WithExplain also shields
						// the caller's capture target from concurrent writes.
						subExs[n] = new(multistep.Explain)
						sub = append(sub, multistep.WithExplain(subExs[n]))
						subItems[n] = sub
					}
					sessR, sessS := rt.Rel.NewSession(), st.Rel.NewSession()
					outs, err := multistep.JoinBatch(ctx, rt.Rel, st.Rel, sessR, sessS, subItems)
					if err != nil {
						return err
					}
					if serr := sessR.Err(); serr != nil {
						return serr
					}
					if serr := sessS.Err(); serr != nil {
						return serr
					}
					for n, i := range todo {
						tileRes[i] = JoinTileResult{Pairs: outs[n].Pairs, Stats: outs[n].Stats, Explain: subExs[n]}
						if tc != nil && !ress[i].Bufferless {
							tc.PutJoinTile(joinTileKey(e.ri, e.si, ress[i]), tileRes[i])
						}
					}
					return nil
				}()
				if err != nil {
					mu.Lock()
					defer mu.Unlock()
					if firstErr == nil {
						firstErr = err
						cancel()
					}
					return
				}
			}

			subs[k] = tileRes
		}(k, e)
	}
	wg.Wait()

	if firstErr == nil {
		firstErr = parent.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}

	outcomes := make([]BatchOutcome, len(items))
	for i := range outcomes {
		o := &outcomes[i]
		o.Stats.SubJoins = len(eligible)
		// eligible is in (RTile, STile) order, and so is PerTile.
		for k, e := range eligible {
			tr := subs[k][i]
			ex := tr.Explain
			if ress[i].Explain == nil {
				ex = nil
			}
			o.Stats.PerTile = append(o.Stats.PerTile, SubJoinStats{RTile: e.ri, STile: e.si, Stats: tr.Stats, Explain: ex})
			addStats(&o.Stats.Stats, tr.Stats)
		}
		if ress[i].Explain != nil {
			// aggregateExplain reads the sub-joins' Explain records; on
			// this path they were surfaced only for requests that asked.
			*ress[i].Explain = aggregateExplain(o.Stats.PerTile, false)
		}
		if !ress[i].Bufferless {
			// The tile-local pairs may be cache entries: read, never
			// translated in place.
			o.Pairs = mergePairs(r, s, eligible, ress[i].Limit, func(k int) []multistep.Pair { return subs[k][i].Pairs })
		}
	}
	return outcomes, nil
}
