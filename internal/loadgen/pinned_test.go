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

// TestWithinJoinPinnedCounts pins the work a within-distance join does on
// the standard SF 0.01 dataset (4 tiles, ε = one cell): the step 2 and
// step 3 kernels decide dist ≤ ε without computing the distance, and
// this test is the proof that the decision kernels return the verdicts —
// and the TR*-tree and edge loops visit the pairs — of the
// distance-computing ones they replaced. The numbers were recorded at
// the last commit that computed distances (9853f64) and must not move
// unless step 1, the approximations or the decomposition change. They
// moved once since: MERs certified to lie inside their objects dropped
// three pairs at distance > ε that unsound MERs had made filter hits
// (R 55 × S 53, R 131 × S 133, R 456 × S 385).
func TestWithinJoinPinnedCounts(t *testing.T) {
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

	type counts struct {
		cand, hits, falseHits, tested, exactHits, result int64
		ops                                              ops.Counters
	}
	// Steps 1 and 2 do not depend on the engine.
	const cand, hits, falseHits, tested, exactHits, result = 28395, 13049, 5117, 10229, 9366, 22415
	const pairsHash = 0xde915b299f0aa26b
	cases := []struct {
		engine multistep.Engine
		ops    ops.Counters
	}{
		{multistep.EngineTRStar, ops.Counters{RectIntersection: 276496, TrapIntersection: 25022}},
		{multistep.EnginePlaneSweep, ops.Counters{EdgeIntersection: 272154, EdgeRect: 716849, RectIntersection: 10229}},
		{multistep.EngineQuadratic, ops.Counters{EdgeIntersection: 4511986, RectIntersection: 10229}},
	}
	for _, tc := range cases {
		t.Run(tc.engine.String(), func(t *testing.T) {
			c := cfg
			c.Engine = tc.engine
			pairs, st, err := shard.Join(context.Background(), rel[0], rel[1],
				multistep.WithConfig(c), multistep.WithPredicate(multistep.WithinDistance(eps)))
			if err != nil {
				t.Fatal(err)
			}
			got := counts{st.CandidatePairs, st.FilterHits, st.FilterFalseHits, st.ExactTested, st.ExactHits, st.ResultPairs, st.Ops}
			want := counts{cand, hits, falseHits, tested, exactHits, result, tc.ops}
			if got != want {
				t.Errorf("counts moved:\n got  %+v\n want %+v", got, want)
			}
			h := fnv.New64a()
			for _, p := range pairs {
				_ = binary.Write(h, binary.LittleEndian, p) // a hash.Hash never fails
			}
			if int64(len(pairs)) != st.ResultPairs || h.Sum64() != pairsHash {
				t.Errorf("response moved: %d pairs (ResultPairs %d), hash %#x, want %#x", len(pairs), st.ResultPairs, h.Sum64(), uint64(pairsHash))
			}
		})
	}
}
