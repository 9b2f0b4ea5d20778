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
// the prefix of that global order. A WithStream emitter receives
// globally-translated pairs in arrival order, interleaved across
// sub-joins.
//
// Each eligible tile pair runs one sub-join (multistep.RunJoin) on a
// fresh session pair, so its page accounting is the solo per-tile figure.
// Its goroutine translates the sub-join's pairs to global IDs and sorts
// them, so the sorts run in parallel; the merge layer k-way merges these
// runs and applies the limit (sub-joins run uncapped: a tile's run holds
// only its own pairs, so its prefix need not contain the global one).
//
// Routing: sub-join (i, j) runs iff r.Tiles[i].MBR expanded by the
// predicate's ε intersects s.Tiles[j].MBR — tile MBRs are true object
// bounds, so no qualifying pair can be routed away.
//
// Cancellation fans out: the first sub-join error (including ctx
// cancellation) cancels every other sub-join, and Join returns only
// after all of them have stopped — no goroutine outlives the call. Joins
// fail closed: one failed tile pair fails the join.
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
		mu       sync.Mutex // guards firstErr and serializes the stream emitter
		firstErr error
		// subs[k] is the outcome of sub-join eligible[k], written by that
		// sub-join's goroutine alone and merged after all of them have
		// stopped.
		subs = make([]subJoin, len(eligible))
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

			// The sub-join is a recovery boundary: a panic in this tile
			// pair's sub-join becomes its error (and, joins failing closed,
			// the join's) instead of killing the process.
			err := func() (err error) {
				defer resilience.RecoverTo(&err, "tile-join")
				if ferr := fault.Check("tile-join"); ferr != nil {
					return ferr
				}
				// The resolved options, copied for this sub-join: its own
				// sessions and its own Explain — the caller's capture target
				// must not be written by N goroutines, and per-tile-pair
				// plans are the point.
				sessR, sessS := rt.Rel.NewSession(), st.Rel.NewSession()
				sub := res
				sub.AxR, sub.AxS, sub.Explain = sessR, sessS, nil
				var sj subJoin
				if res.Explain != nil {
					sj.explain = new(multistep.Explain)
					sub.Explain = sj.explain
				}
				if emit := res.Stream; emit != nil {
					sub.Stream = func(p multistep.Pair) {
						mu.Lock()
						defer mu.Unlock()
						emit(multistep.Pair{A: rt.Global[p.A], B: st.Global[p.B]})
					}
				}
				pairs, sst, err := multistep.RunJoin(ctx, rt.Rel, st.Rel, sub)
				if err != nil {
					return err
				}
				// The pairs are this sub-join's own allocation: translated
				// and sorted in place, they become the run the merge reads.
				for i, p := range pairs {
					pairs[i] = multistep.Pair{A: rt.Global[p.A], B: st.Global[p.B]}
				}
				slices.SortFunc(pairs, multistep.ComparePairs)
				sj.pairs, sj.stats = pairs, sst
				subs[k] = sj
				return nil
			}()
			if err != nil {
				mu.Lock()
				defer mu.Unlock()
				if firstErr == nil {
					firstErr = err
					cancel()
				}
			}
		}(k, e)
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

	stats := JoinStats{SubJoins: len(eligible)}
	runs := make([][]multistep.Pair, len(subs))
	// eligible is in (RTile, STile) order, and so is PerTile.
	for k, e := range eligible {
		sj := subs[k]
		stats.PerTile = append(stats.PerTile, SubJoinStats{RTile: e.ri, STile: e.si, Stats: sj.stats, Explain: sj.explain})
		addStats(&stats.Stats, sj.stats)
		runs[k] = sj.pairs
	}
	if res.Explain != nil {
		*res.Explain = aggregateExplain(stats.PerTile, res.Stream != nil)
	}
	var pairs []multistep.Pair
	if !res.Bufferless && res.Stream == nil {
		pairs = mergePairs(runs, res.Limit)
	}
	return pairs, stats, nil
}

// subJoin is one tile pair's outcome: its run of the response (global
// IDs, (A, B)-sorted), its statistics and, under WithExplain, its plan.
type subJoin struct {
	pairs   []multistep.Pair
	stats   multistep.Stats
	explain *multistep.Explain
}

// mergePairs merges the sub-joins' runs — each in global IDs and
// (A, B)-sorted — into the single-relation response: (A, B)-sorted,
// adjacent duplicates dropped, cut to the first limit pairs (limit < 0:
// all). It allocates the response once, at min(total, limit) pairs, and
// stops at the limit; the runs slice itself is consumed as the merge
// heap's storage. The partition is disjoint, so duplicates cannot arise;
// dropping them is the cheap invariant that keeps the merge correct
// should a replicating partitioner ever be plugged in.
func mergePairs(runs [][]multistep.Pair, limit int) []multistep.Pair {
	// heap is a binary min-heap of the non-empty runs, keyed by their
	// first pair: each merged pair costs O(log k) comparisons for k runs.
	heap := runs[:0]
	total := 0
	for _, run := range runs {
		if len(run) > 0 {
			heap = append(heap, run)
			total += len(run)
		}
	}
	if total == 0 {
		return nil
	}
	if limit >= 0 {
		total = min(total, limit)
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	out := make([]multistep.Pair, 0, total)
	for len(out) < total && len(heap) > 0 {
		p := heap[0][0]
		if n := len(out); n == 0 || out[n-1] != p {
			out = append(out, p)
		}
		if heap[0] = heap[0][1:]; len(heap[0]) == 0 {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(heap, 0)
	}
	return out
}

// siftDown restores the heap order of mergePairs below index i.
func siftDown(heap [][]multistep.Pair, i int) {
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(heap) && multistep.ComparePairs(heap[c][0], heap[least][0]) < 0 {
				least = c
			}
		}
		if least == i {
			return
		}
		heap[i], heap[least] = heap[least], heap[i]
		i = least
	}
}
