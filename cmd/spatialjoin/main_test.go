package main

import (
	"testing"

	"spatialjoin/internal/multistep"
	"spatialjoin/internal/plan"
	"spatialjoin/internal/shard"
)

// TestModelledCostSumsSubJoins: with tile pairs that ran different
// engines (an aggregate plan of "mixed"), the modelled cost is the sum
// of each sub-join's breakdown under its own engine.
func TestModelledCostSumsSubJoins(t *testing.T) {
	sub := func(engine string, pages, tested int64) shard.SubJoinStats {
		return shard.SubJoinStats{
			Stats:   multistep.Stats{PageAccessesR: pages, ExactTested: tested},
			Explain: &multistep.Explain{Plan: multistep.Plan{Engine: engine}},
		}
	}
	st := shard.JoinStats{PerTile: []shard.SubJoinStats{sub("trstar", 10, 100), sub("planesweep", 20, 50)}}
	got, err := modelledCost(st)
	if err != nil {
		t.Fatal(err)
	}
	p := plan.PaperParams()
	tr := plan.FromStats(10, 100, plan.EngineTRStar, p)
	ps := plan.FromStats(20, 50, plan.EnginePlaneSweep, p)
	want := plan.Breakdown{MBRJoin: tr.MBRJoin + ps.MBRJoin, ObjectAccess: tr.ObjectAccess + ps.ObjectAccess, ExactTest: tr.ExactTest + ps.ExactTest}
	if got != want {
		t.Fatalf("modelled cost %+v, want %+v", got, want)
	}
	st.PerTile[0].Explain.Plan.Engine = "mixed"
	if _, err := modelledCost(st); err == nil {
		t.Fatal("a sub-join without a concrete engine must be an error")
	}
}
