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

// Join runs the multi-step join of two sharded relations as per-tile-pair
// sub-joins and merges the responses back into the single-relation
// contract: pairs carry global object IDs, the collected response is
// (A, B)-sorted with adjacent duplicates removed, and a WithLimit cap is
// the prefix of that global order. The limit is lifted to the merge
// layer (sub-joins run uncapped): tiles sort by local IDs, a permutation
// of the global order, so a local prefix need not contain the global
// one. A WithStream emitter receives globally-translated pairs in
// arrival order, interleaved across sub-joins.
//
// Routing: sub-join (i, j) runs iff r.Tiles[i].MBR expanded by the
// predicate's ε intersects s.Tiles[j].MBR — tile MBRs are true object
// bounds, so no qualifying pair can be routed away.
//
// Cancellation fans out: the first sub-join error (including ctx
// cancellation) cancels every other sub-join, and Join returns only
// after all of them have stopped — no goroutine outlives the call.
func Join(ctx context.Context, r, s *Sharded, opts ...multistep.Option) ([]multistep.Pair, JoinStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := multistep.ResolveOptions(opts)
	if err := res.Pred.Validate(); err != nil {
		return nil, JoinStats{}, err
	}
	if res.Cfg == nil && r.Fingerprint() != s.Fingerprint() {
		return nil, JoinStats{}, fmt.Errorf("shard: relations %q and %q were built under different configurations: %w",
			r.Name, s.Name, multistep.ErrConfigMismatch)
	}

	eligible := eligiblePairs(r, s, res.Pred.Epsilon())

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		// subs[k] is the outcome of sub-join eligible[k], written by its
		// goroutine alone and merged after all of them have stopped.
		subs = make([]subJoin, len(eligible))
	)
	collect := res.Stream == nil && !res.Bufferless
	emit := res.Stream
	if emit != nil {
		inner := emit
		emit = func(p multistep.Pair) {
			mu.Lock()
			inner(p)
			mu.Unlock()
		}
	}

	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	var wg sync.WaitGroup
	for k, e := range eligible {
		wg.Add(1)
		go func(e tilePair, sub *subJoin) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			rt, st := r.Tiles[e.ri], s.Tiles[e.si]
			// The sub-join body is a recovery boundary: a panic inside
			// one tile pair's traversal becomes this sub-join's error
			// (and, joins failing closed, the whole join's) instead of
			// killing the process.
			err := func() (err error) {
				defer resilience.RecoverTo(&err, "tile-join")
				if ferr := fault.Check("tile-join"); ferr != nil {
					return ferr
				}
				sessR, sessS := rt.Rel.NewSession(), st.Rel.NewSession()
				// Fresh option slice per sub-join: appending to the shared
				// opts would race on its backing array.
				subOpts := make([]multistep.Option, 0, len(opts)+4)
				subOpts = append(subOpts, opts...)
				subOpts = append(subOpts, multistep.WithSessions(sessR, sessS),
					multistep.WithLimit(-1))
				// Each sub-join gets its own Explain: the caller's capture
				// target (if any) must not be written by N goroutines, and
				// per-tile-pair plans are the point — appending a fresh
				// WithExplain overrides the one inside opts.
				if res.Explain != nil {
					sub.explain = new(multistep.Explain)
					subOpts = append(subOpts, multistep.WithExplain(sub.explain))
				}
				if emit != nil {
					local := emit
					subOpts = append(subOpts, multistep.WithStream(func(p multistep.Pair) {
						local(multistep.Pair{A: rt.Global[p.A], B: st.Global[p.B]})
					}))
				}
				sub.pairs, sub.stats, err = multistep.Join(ctx, rt.Rel, st.Rel, subOpts...)
				if err != nil {
					return err
				}
				if serr := sessR.Err(); serr != nil {
					return serr
				}
				return sessS.Err()
			}()
			if err != nil {
				mu.Lock()
				defer mu.Unlock()
				if firstErr == nil {
					firstErr = err
					cancel()
				}
			}
		}(e, &subs[k])
	}
	wg.Wait()

	if firstErr == nil {
		// Every sub-join may have skipped work on a context that was
		// cancelled before it started; surface the caller's error.
		firstErr = parent.Err()
	}
	if firstErr != nil {
		return nil, JoinStats{}, firstErr
	}
	// eligible is in (RTile, STile) order, and so is PerTile.
	stats := JoinStats{SubJoins: len(eligible)}
	for k, e := range eligible {
		stats.PerTile = append(stats.PerTile, SubJoinStats{RTile: e.ri, STile: e.si, Stats: subs[k].stats, Explain: subs[k].explain})
		addStats(&stats.Stats, subs[k].stats)
	}
	if res.Explain != nil {
		*res.Explain = aggregateExplain(stats.PerTile, res.Stream != nil)
	}
	var out []multistep.Pair
	if collect {
		out = mergePairs(r, s, eligible, res.Limit, func(k int) []multistep.Pair { return subs[k].pairs })
	}
	return out, stats, nil
}

// subJoin is the outcome of one tile-pair sub-join: tile-local pairs,
// the sub-join's accounting and, under WithExplain, its plan record.
type subJoin struct {
	pairs   []multistep.Pair
	stats   multistep.Stats
	explain *multistep.Explain
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
