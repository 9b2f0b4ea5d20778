package shard

import (
	"context"
	"fmt"
	"slices"

	"spatialjoin/internal/multistep"
)

// tilePair identifies one eligible tile-pair sub-join.
type tilePair struct{ ri, si int }

// eligiblePairs applies the routing test of the scatter-gather join:
// sub-join (i, j) runs iff r.Tiles[i].MBR expanded by the predicate's ε
// intersects s.Tiles[j].MBR.
func eligiblePairs(r, s *Sharded, eps float64) []tilePair {
	var eligible []tilePair
	for _, rt := range r.Tiles {
		grown := rt.MBR.Expand(eps)
		for _, st := range s.Tiles {
			if grown.Intersects(st.MBR) {
				eligible = append(eligible, tilePair{rt.Index, st.Index})
			}
		}
	}
	return eligible
}

// TileExplain is the plan record of one tile-pair sub-join.
type TileExplain struct {
	RTile   int               `json:"rTile"`
	STile   int               `json:"sTile"`
	Explain multistep.Explain `json:"explain"`
}

// ExplainResult is the EXPLAIN record of a scatter-gather join: the
// aggregate over all sub-joins plus the per-tile-pair breakdown (each
// tile pair is planned independently from its own tiles' statistics, so
// skewed tiles legitimately show different engines or worker counts).
type ExplainResult struct {
	// Explain aggregates the sub-joins: predicted and actual counters
	// are sums; the summed wall time is serial-equivalent work
	// (sub-joins overlap in wall time under the coordinator's
	// GOMAXPROCS cap).
	Explain multistep.Explain `json:"explain"`
	// SubJoins is the shard fan-out: the number of tile pairs that
	// passed routing.
	SubJoins int `json:"subJoins"`
	// PerTile lists each sub-join's plan, sorted by (RTile, STile).
	PerTile []TileExplain `json:"perTile"`
}

// aggregateExplain folds the per-unit explains of a completed join or
// query, in tile order, into one record: sums for the counters and wall
// times, the plan knobs merged ("mixed" when units chose different
// engines). Nil explains are skipped.
func aggregateExplain(explains []*multistep.Explain, stream bool) multistep.Explain {
	var agg multistep.Explain
	agg.Executed = true
	agg.Plan.Stream = stream
	first := true
	for _, ex := range explains {
		if ex == nil {
			continue
		}
		if first {
			agg.Plan = ex.Plan
			agg.Plan.Stream = stream
			first = false
		} else {
			if agg.Plan.Engine != ex.Plan.Engine {
				// Filter disagreements stay visible per tile; the engine is
				// the one knob a client reads first, so flag divergence.
				agg.Plan.Engine = "mixed"
			}
			if ex.Plan.Workers > agg.Plan.Workers {
				agg.Plan.Workers = ex.Plan.Workers
			}
			agg.Plan.Planned = agg.Plan.Planned || ex.Plan.Planned
			agg.Plan.StreamRecommended = agg.Plan.StreamRecommended || ex.Plan.StreamRecommended
			agg.Plan.PredictedCandidates += ex.Plan.PredictedCandidates
			agg.Plan.PredictedExactTested += ex.Plan.PredictedExactTested
			agg.Plan.PredictedResultPairs += ex.Plan.PredictedResultPairs
		}
		agg.Executed = agg.Executed && ex.Executed
		agg.ActualCandidates += ex.ActualCandidates
		agg.ActualExactTested += ex.ActualExactTested
		agg.ActualResultPairs += ex.ActualResultPairs
		agg.ActualWallNs += ex.ActualWallNs
	}
	if agg.Plan.Planned && agg.ActualCandidates > 0 {
		agg.CandidateError = agg.Plan.PredictedCandidates / float64(agg.ActualCandidates)
	}
	return agg
}

// Explain plans (and with run, executes) a scatter-gather join and
// returns the aggregate plus per-tile-pair plan records — the EXPLAIN
// verb of the sharded layer. Without run, every eligible tile pair is
// planned through multistep.ExplainJoin and nothing executes; with run,
// the join executes bufferlessly (statistics and plans, no pairs) and
// the records carry predicted-vs-actual errors.
func Explain(ctx context.Context, r, s *Sharded, run bool, opts ...multistep.Option) (ExplainResult, error) {
	res := multistep.ResolveOptions(opts)
	if err := res.Pred.Validate(); err != nil {
		return ExplainResult{}, err
	}
	if res.Cfg == nil && r.Fingerprint() != s.Fingerprint() {
		return ExplainResult{}, fmt.Errorf("shard: relations %q and %q were built under different configurations: %w",
			r.Name, s.Name, multistep.ErrConfigMismatch)
	}

	if run {
		var agg multistep.Explain
		runOpts := slices.Concat(opts, []multistep.Option{multistep.WithBufferless(), multistep.WithExplain(&agg)})
		_, st, err := Join(ctx, r, s, runOpts...)
		if err != nil {
			return ExplainResult{}, err
		}
		out := ExplainResult{Explain: agg, SubJoins: st.SubJoins}
		for _, sj := range st.PerTile {
			if sj.Explain != nil {
				out.PerTile = append(out.PerTile, TileExplain{RTile: sj.RTile, STile: sj.STile, Explain: *sj.Explain})
			}
		}
		return out, nil
	}

	eligible := eligiblePairs(r, s, res.Pred.Epsilon())
	out := ExplainResult{SubJoins: len(eligible)}
	explains := make([]*multistep.Explain, 0, len(eligible))
	for _, e := range eligible {
		if err := ctx.Err(); err != nil {
			return ExplainResult{}, err
		}
		ex, err := multistep.ExplainJoin(r.Tiles[e.ri].Rel, s.Tiles[e.si].Rel, res)
		if err != nil {
			return ExplainResult{}, err
		}
		out.PerTile = append(out.PerTile, TileExplain{RTile: e.ri, STile: e.si, Explain: ex})
		explains = append(explains, &ex)
	}
	out.Explain = aggregateExplain(explains, res.Stream != nil)
	out.Explain.Executed = false
	return out, nil
}
