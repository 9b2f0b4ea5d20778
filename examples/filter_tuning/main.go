// Filter tuning, revisited: the knobs this example used to hand-sweep —
// exact engine and geometric filter — are now owned by the planner. The
// example still runs the manual sweep so the design space of section 3
// stays visible, then lets the planner pick a configuration for the same
// workload and compares its choice against the sweep: the plan should
// land within a small factor of the best hand-tuned cell, without anyone
// sweeping anything.
//
//	go run ./examples/filter_tuning
package main

import (
	"context"
	"fmt"
	"time"

	"spatialjoin"
)

const reps = 3

// measure returns the fastest of reps timed runs (the first run warms up
// the lazy exact representations before any timing starts).
func measure(r, s *spatialjoin.Relation, opts ...spatialjoin.Option) (time.Duration, spatialjoin.Stats) {
	opts = append(opts, spatialjoin.WithBufferless())
	var best time.Duration
	var stats spatialjoin.Stats
	for i := 0; i <= reps; i++ {
		t0 := time.Now()
		_, st, err := spatialjoin.Join(context.Background(), r, s, opts...)
		if err != nil {
			panic(err)
		}
		if d := time.Since(t0); i == 0 || d < best {
			best, stats = d, st
		}
	}
	return best, stats
}

func main() {
	cfg := spatialjoin.DefaultConfig()
	base := spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 400, TargetVerts: 48, Seed: 7})
	shifted := spatialjoin.ShiftedCopy(base, 0.45)
	r := spatialjoin.NewRelation("R", base, 1, cfg)
	s := spatialjoin.NewRelation("S", shifted, 1, cfg)

	// The manual route: sweep every engine × filter cell and keep score.
	fmt.Println("manual sweep (engine × filter):")
	fmt.Printf("  %-12s %-8s %10s %12s %10s\n", "engine", "filter", "time", "candidates", "exact")
	engines := []spatialjoin.Engine{
		spatialjoin.EngineTRStar, spatialjoin.EnginePlaneSweep, spatialjoin.EngineQuadratic,
	}
	var best, worst time.Duration
	var bestName string
	for _, eng := range engines {
		for _, filt := range []bool{true, false} {
			c := cfg
			c.Engine = eng
			c.UseFilter = filt
			d, st := measure(r, s, spatialjoin.WithConfig(c), spatialjoin.WithWorkers(1))
			name := eng.String()
			filtCol := "on"
			if !filt {
				name += " (no filter)"
				filtCol = "off"
			}
			fmt.Printf("  %-12s %-8s %10v %12d %10d\n", eng, filtCol, d.Round(time.Microsecond), st.CandidatePairs, st.ExactTested)
			if best == 0 || d < best {
				best, bestName = d, name
			}
			if d > worst {
				worst = d
			}
		}
	}
	fmt.Printf("  best %s at %v, worst %v (%.1f× spread)\n\n",
		bestName, best.Round(time.Microsecond), worst.Round(time.Microsecond), float64(worst)/float64(best))

	// The planner route: ask for a plan instead of sweeping. ExplainJoin
	// shows the choice and its estimates without executing anything.
	ex, err := spatialjoin.ExplainJoin(context.Background(), r, s, false, spatialjoin.WithPlan())
	if err != nil {
		panic(err)
	}
	p := ex.Explain.Plan
	fmt.Printf("planner choice: engine=%s filter=%v workers=%d\n", p.Engine, p.UseFilter, p.Workers)
	fmt.Printf("  predicted: %.0f candidates\n", p.PredictedCandidates)

	d, st := measure(r, s, spatialjoin.WithPlan())
	fmt.Printf("  actual:    %d candidates in %v — %.2f× the best hand-tuned cell\n",
		st.CandidatePairs, d.Round(time.Microsecond), float64(d)/float64(best))
	fmt.Println("\nThe sweep above is what the planner replaces: the TR*-tree engine with the")
	fmt.Println("filter on whenever the relations carry object trees and approximations —")
	fmt.Println("the paper's recommendation, and the same choice every time.")
}
