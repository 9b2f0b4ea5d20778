package shard

import (
	"context"
	"fmt"
	"sync"
	"unsafe"

	"spatialjoin/internal/freelist"
	"spatialjoin/internal/multistep"
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
// It appends its pairs to a run buffer of its own, reused across joins,
// and translates them to global IDs in place. Once every sub-join has
// returned, one counting pass (multistep.OrderPairs) orders the runs,
// drops duplicates and applies the limit, writing the response once, at
// its exact size (sub-joins run uncapped: a tile's run holds only its own
// pairs, so its prefix need not contain the global one).
//
// Routing: sub-join (i, j) runs iff r.Tiles[i].MBR expanded by the
// predicate's ε intersects s.Tiles[j].MBR — tile MBRs are true object
// bounds, so no qualifying pair can be routed away.
//
// The sub-joins run through fanOut, the one scatter-gather loop: the
// first sub-join error (including ctx cancellation) cancels every other
// sub-join, and Join returns only after all of them have stopped — no
// goroutine outlives the call. Joins fail closed: one failed tile pair
// fails the join.
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

	var (
		mu sync.Mutex // serializes the stream emitter
		// subs[k] is the outcome of sub-join eligible[k], runs[k] its
		// response run.
		subs = make([]subJoin, len(eligible))
		rb   = runBuffers.Get()
		runs = rb.reset(len(eligible))
	)
	defer rb.release()
	err := fanOut(ctx, len(eligible), "tile-join", nil, func(ctx context.Context, k int) error {
		rt, st := r.Tiles[eligible[k].ri], s.Tiles[eligible[k].si]
		// The resolved options, copied for this sub-join: its own
		// sessions and its own Explain — the caller's capture target
		// must not be written by N goroutines, and per-tile-pair plans
		// are the point.
		sub := res
		sub.AxR, sub.AxS, sub.Explain = rt.Rel.NewSession(), st.Rel.NewSession(), nil
		sj := &subs[k]
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
		pairs, sst, err := multistep.RunJoin(ctx, rt.Rel, st.Rel, sub, runs[k])
		if err != nil {
			return err
		}
		for i, p := range pairs {
			pairs[i] = multistep.Pair{A: rt.Global[p.A], B: st.Global[p.B]}
		}
		runs[k], sj.stats = pairs, sst
		return nil
	})
	if err != nil {
		return nil, JoinStats{}, err
	}

	stats := JoinStats{SubJoins: len(eligible)}
	var explains []*multistep.Explain
	// eligible is in (RTile, STile) order, and so is PerTile.
	for k, e := range eligible {
		sj := subs[k]
		stats.PerTile = append(stats.PerTile, SubJoinStats{RTile: e.ri, STile: e.si, Stats: sj.stats, Explain: sj.explain})
		addStats(&stats.Stats, sj.stats)
		if sj.explain != nil {
			explains = append(explains, sj.explain)
		}
	}
	if res.Explain != nil {
		*res.Explain = aggregateExplain(explains, res.Stream != nil)
	}
	var pairs []multistep.Pair
	if !res.Bufferless && res.Stream == nil {
		pairs = multistep.OrderPairs(runs, r.Objects(), s.Objects(), res.Limit, nil)
	}
	return pairs, stats, nil
}

// subJoin is one tile pair's outcome: its statistics and, under
// WithExplain, its plan.
type subJoin struct {
	stats   multistep.Stats
	explain *multistep.Explain
}

// runSet holds one join's sub-join runs. Run k serves sub-join k, and a
// join with the same tile pairs gets the set back from runBuffers with
// each run as long as its last use left it, so a warmed join grows none.
type runSet struct{ runs [][]multistep.Pair }

var runBuffers freelist.List[runSet]

// reset returns n empty runs, keeping every run's capacity.
func (rb *runSet) reset(n int) [][]multistep.Pair {
	if n > cap(rb.runs) {
		rb.runs = append(rb.runs[:cap(rb.runs)], make([][]multistep.Pair, n-cap(rb.runs))...)
	}
	rb.runs = rb.runs[:n]
	for k := range rb.runs {
		rb.runs[k] = rb.runs[k][:0]
	}
	return rb.runs
}

// release returns the set to runBuffers, unless its runs hold more than
// the free list keeps.
func (rb *runSet) release() {
	size := 0
	for _, run := range rb.runs[:cap(rb.runs)] {
		size += cap(run) * int(unsafe.Sizeof(multistep.Pair{}))
	}
	runBuffers.Put(rb, size)
}
