package loadgen

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"path/filepath"
	"testing"

	"spatialjoin/internal/multistep"
	"spatialjoin/internal/ops"
	"spatialjoin/internal/shard"
)

// TestJoinPinnedCounts pins the work an intersection join and a
// within-distance join do on the standard SF 0.01 dataset (4 tiles,
// DefaultConfig, ε = one cell), on every exact engine: the candidates,
// the step 2 and step 3 verdicts, the kernels' operation counts and the
// response itself. A change to a step 2 or step 3 kernel that claims
// identical verdicts is held to these numbers; they move only when
// step 1, the approximations or the decomposition change.
//
// The within numbers were recorded at the last commit that computed
// distances (9853f64): the decision kernels that replaced the
// distance-computing ones return the same verdicts and visit the same
// pairs. They moved once since: MERs certified to lie inside their
// objects dropped three pairs at distance > ε that unsound MERs had made
// filter hits (R 55 × S 53, R 131 × S 133, R 456 × S 385). The
// intersects numbers were recorded at 503afa4, before the separating-axis
// shortcut and the branch-free TR*-tree rectangle tests. Both moved once
// more when the generator stopped cutting holes that cross their outer
// ring: R lost one such hole, which made one within filter hit an exact
// test and moved the kernels' operation counts; the responses and their
// hashes stayed. The within row moved again when the ε-join filter began
// proving hits with witness vertices: 8,134 pairs that step 3 used to
// confirm became filter hits; candidates, false hits and the response
// stayed.
func TestJoinPinnedCounts(t *testing.T) {
	spec, err := For(0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg := multistep.DefaultConfig()
	dir := t.TempDir()
	var rel [2]*shard.Sharded
	for i, side := range []string{"R", "S"} {
		mc, err := spec.MapConfig(side)
		if err != nil {
			t.Fatal(err)
		}
		store := filepath.Join(dir, side+".store")
		if _, err := BuildStore(store, spec.RelationName(side), mc, 4, cfg); err != nil {
			t.Fatal(err)
		}
		if rel[i], err = shard.Open(store, cfg); err != nil {
			t.Fatal(err)
		}
	}
	eps := spec.Extent / float64(intSqrt(spec.Objects))

	// Steps 1 and 2 do not depend on the engine.
	type counts struct {
		cand, hits, falseHits, tested, exactHits, result int64
		ops                                              ops.Counters
	}
	predicates := []struct {
		name      string
		pred      multistep.Predicate
		counts    counts // ops left zero: it is the engine's
		pairsHash uint64
		ops       map[multistep.Engine]ops.Counters
	}{
		{
			name:      "intersects",
			pred:      multistep.Intersects(),
			counts:    counts{cand: 9218, hits: 2202, falseHits: 1131, tested: 5885, exactHits: 4885, result: 7087},
			pairsHash: 0x65bba8de29c508a2,
			ops: map[multistep.Engine]ops.Counters{
				multistep.EngineTRStar:     {RectIntersection: 132255, TrapIntersection: 8771},
				multistep.EnginePlaneSweep: {EdgeIntersection: 29635, EdgeRect: 410831, Position: 104344},
				multistep.EngineQuadratic:  {EdgeIntersection: 3398310},
			},
		},
		{
			name:      "within",
			pred:      multistep.WithinDistance(eps),
			counts:    counts{cand: 28395, hits: 21182, falseHits: 5117, tested: 2096, exactHits: 1233, result: 22415},
			pairsHash: 0xde915b299f0aa26b,
			ops: map[multistep.Engine]ops.Counters{
				multistep.EngineTRStar:     {RectIntersection: 102332, TrapIntersection: 8682},
				multistep.EnginePlaneSweep: {EdgeIntersection: 97066, EdgeRect: 147444, RectIntersection: 2096},
				multistep.EngineQuadratic:  {EdgeIntersection: 1625360, RectIntersection: 2096},
			},
		},
	}
	engines := []multistep.Engine{multistep.EngineTRStar, multistep.EnginePlaneSweep, multistep.EngineQuadratic}
	for _, pc := range predicates {
		for _, engine := range engines {
			t.Run(pc.name+"/"+engine.String(), func(t *testing.T) {
				c := cfg
				c.Engine = engine
				pairs, st, err := shard.Join(context.Background(), rel[0], rel[1],
					multistep.WithConfig(c), multistep.WithPredicate(pc.pred))
				if err != nil {
					t.Fatal(err)
				}
				got := counts{st.CandidatePairs, st.FilterHits, st.FilterFalseHits, st.ExactTested, st.ExactHits, st.ResultPairs, st.Ops}
				want := pc.counts
				want.ops = pc.ops[engine]
				if got != want {
					t.Errorf("counts moved:\n got  %+v\n want %+v", got, want)
				}
				h := fnv.New64a()
				for _, p := range pairs {
					_ = binary.Write(h, binary.LittleEndian, p) // a hash.Hash never fails
				}
				if int64(len(pairs)) != st.ResultPairs || h.Sum64() != pc.pairsHash {
					t.Errorf("response moved: %d pairs (ResultPairs %d), hash %#x, want %#x", len(pairs), st.ResultPairs, h.Sum64(), pc.pairsHash)
				}
			})
		}
	}
}
