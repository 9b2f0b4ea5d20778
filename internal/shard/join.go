package shard

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"spatialjoin/internal/multistep"
	"spatialjoin/internal/resilience"
	"spatialjoin/internal/resilience/fault"
)

// SubJoinStats is the accounting of one tile-pair sub-join.
type SubJoinStats struct {
	// RTile and STile are the tile indices of the pair.
	RTile, STile int
	// Stats is the sub-join's own multi-step accounting; page accesses
	// are real per-tile buffer misses (each sub-join runs on fresh
	// per-tile sessions).
	Stats multistep.Stats
	// Explain is the sub-join's plan record, captured when the caller
	// passed WithExplain (each sub-join is planned independently from
	// its own tiles' statistics, so skewed tiles run different plans).
	// Nil otherwise.
	Explain *multistep.Explain
}

// JoinStats aggregates a scatter-gather join. The embedded Stats sums
// the sub-joins field by field: the partition is disjoint, so every
// qualifying pair arises in exactly one sub-join and the candidate,
// filter, exact and result counters equal the unsharded run's. Page
// accesses and object fetches are honest per-tile totals — a tile
// joined against several peer tiles pays for its pages in each
// sub-join, so those fields exceed the monolithic run's; read PerTile
// for the breakdown.
type JoinStats struct {
	multistep.Stats
	// SubJoins counts the tile pairs whose MBRs passed the routing test
	// and actually ran.
	SubJoins int
	// PerTile lists each executed sub-join, sorted by (RTile, STile).
	PerTile []SubJoinStats
}

// addStats accumulates src into dst field by field.
func addStats(dst *multistep.Stats, src multistep.Stats) {
	dst.CandidatePairs += src.CandidatePairs
	dst.MBRJoin.Pairs += src.MBRJoin.Pairs
	dst.MBRJoin.RectTests += src.MBRJoin.RectTests
	dst.MBRJoin.LeafTests += src.MBRJoin.LeafTests
	dst.ZOrderCandidates += src.ZOrderCandidates
	dst.PageAccessesR += src.PageAccessesR
	dst.PageAccessesS += src.PageAccessesS
	dst.FilterHits += src.FilterHits
	dst.FilterFalseHits += src.FilterFalseHits
	dst.ExactTested += src.ExactTested
	dst.ExactHits += src.ExactHits
	dst.ObjectFetches += src.ObjectFetches
	dst.Ops.Add(src.Ops)
	dst.ResultPairs += src.ResultPairs
}

// BatchOutcome is one request's result from JoinBatch: exactly what the
// corresponding solo Join would have returned.
type BatchOutcome struct {
	Pairs []multistep.Pair
	Stats JoinStats
}

// Join runs the multi-step join of two sharded relations as per-tile-pair
// sub-joins and merges the responses back into the single-relation
// contract: pairs carry global object IDs, the collected response is
// (A, B)-sorted with adjacent duplicates removed, and a WithLimit cap is
// the prefix of that global order. It is JoinBatch of one request without
// a tile cache — there is one scatter-gather loop — and the one thing only
// a single request can ask for is admitted: a WithStream emitter receives
// globally-translated pairs in arrival order, interleaved across
// sub-joins.
func Join(ctx context.Context, r, s *Sharded, opts ...multistep.Option) ([]multistep.Pair, JoinStats, error) {
	outs, err := JoinBatch(ctx, r, s, nil, [][]multistep.Option{opts})
	if err != nil {
		return nil, JoinStats{}, err
	}
	return outs[0].Pairs, outs[0].Stats, nil
}

// JoinBatch runs N join requests over the sharded relation pair (r, s)
// as shared work: the tile-pair routing happens once (all requests
// share one step-1 ε, so they route identically), and each eligible
// tile pair runs ONE batched synchronized traversal
// (multistep.JoinBatch) that serves every request, on one fresh session
// pair per tile pair — each request still observes its solo per-tile page
// accounting because the shared traversal replays the solo trace.
// Results come back per request: globally translated, (A, B)-sorted,
// compacted, limit-truncated. The limit is lifted to the merge layer
// (sub-joins run uncapped): tiles sort by local IDs, a permutation of the
// global order, so a local prefix need not contain the global one.
//
// Routing: sub-join (i, j) runs iff r.Tiles[i].MBR expanded by the
// predicate's ε intersects s.Tiles[j].MBR — tile MBRs are true object
// bounds, so no qualifying pair can be routed away.
//
// tc, when non-nil, caches tile-pair sub-results: requests whose
// per-tile-pair identity (predicate, config override, plan mode,
// requested workers) hits the cache skip that tile pair's share of the
// traversal entirely and contribute the original run's sub-statistics.
// Bufferless and streaming requests bypass the cache (their sub-results
// carry no pairs and must not be served to collecting requests).
//
// Two or more requests must share the predicate's step-1 ε and not
// stream. Groups larger than multistep.MaxBatchItems are chunked into
// successive batched traversals, preserving per-request order.
//
// Cancellation fans out: the first sub-join error (including ctx
// cancellation) cancels every other sub-join, and JoinBatch returns only
// after all of them have stopped — no goroutine outlives the call. Joins
// fail closed: one failed tile pair fails every request.
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
		if res.Stream != nil && len(items) > 1 {
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
	// collects reports whether request i wants its pairs returned;
	// cacheable whether its tile-pair sub-results go through tc.
	collects := func(i int) bool { return !ress[i].Bufferless && ress[i].Stream == nil }
	cacheable := func(i int) bool { return tc != nil && collects(i) }

	eligible := eligiblePairs(r, s, ress[0].Pred.Epsilon())

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex // guards firstErr and serializes the stream emitter
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
				if cacheable(i) {
					if cr, ok := tc.GetJoinTile(joinTileKey(e.ri, e.si, ress[i])); ok {
						tileRes[i] = cr
						continue
					}
				}
				todo = append(todo, i)
			}
			if len(todo) == 0 {
				subs[k] = tileRes
				return
			}

			// The shared traversal is a recovery boundary: a panic in
			// this tile pair's sub-join becomes its error (and, joins
			// failing closed, every request's) instead of killing the
			// process.
			err := func() (err error) {
				defer resilience.RecoverTo(&err, "tile-join")
				if ferr := fault.Check("tile-join"); ferr != nil {
					return ferr
				}
				// Each request's resolved options, copied per sub-join: the
				// limit lifted to the merge layer, and the fields a sub-join
				// must own replaced.
				subItems := make([]multistep.Resolved, len(todo))
				for n, i := range todo {
					sub := ress[i]
					sub.Limit = -1
					// Each sub-join gets its own Explain: the caller's
					// capture target must not be written by N goroutines,
					// and per-tile-pair plans are the point. The caching
					// path always captures it (see QueryCached), so a later
					// request that wants the plan can be served from cache.
					sub.Explain = nil
					if ress[i].Explain != nil || cacheable(i) {
						tileRes[i].Explain = new(multistep.Explain)
						sub.Explain = tileRes[i].Explain
					}
					if emit := ress[i].Stream; emit != nil {
						sub.Stream = func(p multistep.Pair) {
							mu.Lock()
							defer mu.Unlock()
							emit(multistep.Pair{A: rt.Global[p.A], B: st.Global[p.B]})
						}
					}
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
					tileRes[i].Pairs, tileRes[i].Stats = outs[n].Pairs, outs[n].Stats
					if cacheable(i) {
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
			subs[k] = tileRes
		}(k, e)
	}
	wg.Wait()

	if firstErr == nil {
		// Every sub-join may have skipped work on a context that was
		// cancelled before it started; surface the caller's error.
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
			if ress[i].Explain == nil {
				tr.Explain = nil // captured for the cache only
			}
			o.Stats.PerTile = append(o.Stats.PerTile, SubJoinStats{RTile: e.ri, STile: e.si, Stats: tr.Stats, Explain: tr.Explain})
			addStats(&o.Stats.Stats, tr.Stats)
		}
		if ress[i].Explain != nil {
			*ress[i].Explain = aggregateExplain(o.Stats.PerTile, ress[i].Stream != nil)
		}
		if collects(i) {
			// The tile-local pairs may be cache entries: read, never
			// translated in place.
			o.Pairs = mergePairs(r, s, eligible, ress[i].Limit, func(k int) []multistep.Pair { return subs[k][i].Pairs })
		}
	}
	return outcomes, nil
}

// mergePairs gathers the tile-local response sets of the sub-joins
// eligible[k] (pairs(k), read only) into the single-relation response:
// translated to global IDs, (A, B)-sorted, cut to the first limit pairs
// (limit < 0: all), in one allocation of exactly the merged size. A cut
// response is a copy of its prefix, so that a caller who keeps it does
// not keep the whole merge alive.
func mergePairs(r, s *Sharded, eligible []tilePair, limit int, pairs func(k int) []multistep.Pair) []multistep.Pair {
	total := 0
	for k := range eligible {
		total += len(pairs(k))
	}
	if total == 0 {
		return nil
	}
	out := make([]multistep.Pair, 0, total)
	for k, e := range eligible {
		ga, gb := r.Tiles[e.ri].Global, s.Tiles[e.si].Global
		for _, p := range pairs(k) {
			out = append(out, multistep.Pair{A: ga[p.A], B: gb[p.B]})
		}
	}
	slices.SortFunc(out, func(p, q multistep.Pair) int {
		switch {
		case p.A != q.A:
			return int(p.A - q.A)
		default:
			return int(p.B - q.B)
		}
	})
	// The partition is disjoint, so duplicates cannot arise; the
	// compaction is the cheap invariant that keeps the merge correct
	// should a replicating partitioner ever be plugged in.
	out = slices.Compact(out)
	if limit >= 0 && len(out) > limit {
		out = slices.Clone(out[:limit])
	}
	return out
}
