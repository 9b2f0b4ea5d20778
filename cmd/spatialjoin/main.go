// Command spatialjoin runs the complete multi-step spatial join end to end
// and prints per-step statistics and the modelled cost breakdown — a
// one-command demonstration of the paper's processor. Inputs are either
// generated on the fly (the default, one tile per relation: the paper's
// single R*-tree) or opened from prebuilt relation stores written by
// cmd/datagen — any tile count — in which case the expensive
// preprocessing is skipped entirely.
//
// Usage:
//
//	spatialjoin [-n 810] [-verts 84] [-strategy A|B] [-engine trstar|planesweep|quadratic]
//	            [-conservative 5C|RMBR|CH|4C|MBC|MBE] [-progressive MER|MEC]
//	            [-no-filter] [-page 4096] [-buffer 131072] [-policy lru|fifo|clock] [-seed 9401]
//	            [-predicate intersects|contains|within] [-epsilon ε]
//	            [-parallel N] [-stream] [-plan=false] [-explain]
//	            [-rstore R.store -sstore S.store]
//	            [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -cpuprofile and -memprofile write pprof profiles of the join phase
// (preprocessing excluded — CPU profiling starts after the relations are
// built, and the heap profile snapshots the live data right after the
// join), so performance work starts from evidence: see README
// "Profiling the hot path".
//
// Joins run through the one join entry point, shard.Join: -predicate
// selects the spatial predicate (-epsilon is the distance bound of the
// within predicate, and implies it), -parallel spreads the pipeline over
// N workers, and -stream switches from collect-and-sort to the
// bounded-memory streaming emission. -rstore/-sstore open prebuilt
// stores (both must be given, and the configuration flags must match the
// ones the stores were built with — a mismatch is rejected via the
// stores' config fingerprint).
//
// The planner (internal/plan) resolves the options left at their
// defaults — the TR*-tree engine, the filter on, GOMAXPROCS workers —
// unless the corresponding flag was set explicitly on the command line
// (an explicit -engine/-no-filter pins both, an explicit -parallel pins
// the workers — exactly the WithConfig / WithWorkers contract).
// -plan=false disables planning entirely; -explain prints the chosen
// plan and its predicted counts before the join, and the
// predicted-vs-actual error after it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"spatialjoin/internal/data"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/plan"
	"spatialjoin/internal/shard"
)

func main() {
	n := flag.Int("n", 810, "objects per relation")
	verts := flag.Int("verts", 84, "average vertices per object")
	strategy := flag.String("strategy", "A", "test-series strategy: A (shifted copy) or B (random placement)")
	config := multistep.ConfigFlags(flag.CommandLine)
	seed := flag.Int64("seed", 9401, "data seed")
	predicate := flag.String("predicate", "intersects", "join predicate: intersects, contains, or within (the ε-distance join)")
	epsilon := flag.Float64("epsilon", 0, "distance bound of the within predicate (implies -predicate within)")
	parallel := flag.Int("parallel", 0, "worker count of the join (step 1 traversal and steps 2+3 alike); 0 = the planner's choice, or with -plan=false sequential (GOMAXPROCS with -stream)")
	stream := flag.Bool("stream", false, "stream the response pairs (WithStream): bounded memory, -parallel workers")
	planOn := flag.Bool("plan", true, "resolve unset options (engine, filter, workers) through the planner; explicitly-set flags stay pinned")
	explain := flag.Bool("explain", false, "print the chosen plan and predicted counts before the join, and the predicted-vs-actual error after (implies -plan)")
	rstorePath := flag.String("rstore", "", "open relation R from this prebuilt store instead of generating it")
	sstorePath := flag.String("sstore", "", "open relation S from this prebuilt store instead of generating it")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the join phase to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the join to this file")
	flag.Parse()

	cfg, err := config()
	if err != nil {
		fatal(err)
	}
	var r, s *shard.Sharded
	switch {
	case *rstorePath != "" && *sstorePath != "":
		t0 := time.Now()
		if r, err = shard.Open(*rstorePath, cfg); err != nil {
			fatal(fmt.Errorf("open %s: %w", *rstorePath, err))
		}
		if s, err = shard.Open(*sstorePath, cfg); err != nil {
			fatal(fmt.Errorf("open %s: %w", *sstorePath, err))
		}
		fmt.Printf("opened prebuilt stores %s (%d objects) and %s (%d objects) in %.3fs — preprocessing skipped\n",
			*rstorePath, r.Objects(), *sstorePath, s.Objects(), time.Since(t0).Seconds())
	case *rstorePath != "" || *sstorePath != "":
		fatal(fmt.Errorf("-rstore and -sstore must be given together"))
	default:
		fmt.Printf("generating %d objects with ~%d vertices (strategy %s)...\n", *n, *verts, *strategy)
		base := data.GenerateMap(data.MapConfig{Cells: *n, TargetVerts: *verts, HoleFraction: 0.06, Seed: *seed})
		var rPolys, sPolys = base, base
		switch strings.ToUpper(*strategy) {
		case "A":
			sPolys = data.StrategyA(base, 0.45)
		case "B":
			rPolys = data.StrategyB(base, *seed+1)
			sPolys = data.StrategyB(base, *seed+2)
		default:
			fatal(fmt.Errorf("unknown strategy %q", *strategy))
		}
		t0 := time.Now()
		r = shard.Build("R", rPolys, 1, cfg)
		s = shard.Build("S", sPolys, 1, cfg)
		fmt.Printf("preprocessing: %.2fs (approximations + R*-trees, entry %d bytes)\n",
			time.Since(t0).Seconds(), multistep.EntryBytes(cfg))
	}

	predName := *predicate
	if *epsilon > 0 && strings.EqualFold(predName, "intersects") {
		predName = "within"
	}
	pred, err := multistep.ParsePredicate(predName, *epsilon)
	if err != nil {
		fatal(err)
	}

	// One entry point for every variant: the predicate, the worker count
	// and the emission mode are orthogonal options of the unified join.
	// Explicitly-set flags pin their dimension for the planner: flag.Visit
	// distinguishes "-engine trstar" (a decision) from the default value
	// (an open choice).
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// -explain without an explicit -plan=false still plans; an explicit
	// -plan=false -explain echoes the static configuration instead.
	usePlanner := *planOn || (*explain && !set["plan"])
	opts := []multistep.Option{multistep.WithPredicate(pred)}
	if !usePlanner || set["engine"] || set["no-filter"] {
		opts = append(opts, multistep.WithConfig(cfg))
	}
	if usePlanner {
		opts = append(opts, multistep.WithPlan())
	}
	workers := *parallel
	if workers <= 0 && !*stream && !usePlanner {
		workers = 1 // sequential measurement mode, the paper's accounting
	}
	if workers > 0 || !usePlanner {
		opts = append(opts, multistep.WithWorkers(workers))
	}
	var pairs []multistep.Pair
	if *stream {
		// A streamed join emits pairs as they are decided instead of
		// collecting them; collect them here only for the summary line.
		opts = append(opts, multistep.WithStream(func(p multistep.Pair) { pairs = append(pairs, p) }))
	}
	// The explain capture rides along on every run: it resolves the
	// executed engine and filter for the report below, planned or not.
	var ex multistep.Explain
	opts = append(opts, multistep.WithExplain(&ex))
	if *explain {
		pre, err := shard.Explain(context.Background(), r, s, false, opts...)
		if err != nil {
			fatal(err)
		}
		p := pre.Explain.Plan
		fmt.Printf("\nplan: engine=%s filter=%v workers=%d planned=%v\n", p.Engine, p.UseFilter, p.Workers, p.Planned)
		if p.Planned {
			fmt.Printf("predicted: %.0f candidates, %.0f exact tests, %.0f result pairs\n",
				p.PredictedCandidates, p.PredictedExactTested, p.PredictedResultPairs)
			if p.StreamRecommended && !*stream {
				fmt.Println("planner recommends -stream: the predicted response set is large")
			}
		}
	}
	// Profiling brackets the join phase only: preprocessing (approximation
	// computation, tree construction) is excluded, exactly as the paper
	// excludes it from the measured cost.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	t1 := time.Now()
	collected, st, err := shard.Join(context.Background(), r, s, opts...)
	if err != nil {
		fatal(err)
	}
	if !*stream {
		pairs = collected
	}
	joinTime := time.Since(t1)
	if *cpuprofile != "" {
		pprof.StopCPUProfile() // idempotent with the deferred stop
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // flush build garbage so the profile shows live join state
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	// Report what actually executed: under the planner, cfg's engine and
	// filter flags are only the admissible choices — and tile pairs
	// choose independently, so the aggregate engine may be "mixed".
	engineName := ex.Plan.Engine
	if e, err := multistep.ParseEngine(engineName); err == nil {
		engineName = e.String()
	}
	cfg.UseFilter = ex.Plan.UseFilter

	fmt.Printf("\njoin wall time: %.3fs (predicate %s, buffer policy %s)\n\n",
		joinTime.Seconds(), pred, cfg.BufferPolicy)
	fmt.Printf("step 1 (MBR-join):      %8d candidate pairs, %d page accesses\n",
		st.CandidatePairs, st.PageAccessesR+st.PageAccessesS)
	if cfg.UseFilter {
		fmt.Printf("step 2 (filter %s+%s): %8d hits, %d false hits identified (%.0f%% of candidates)\n",
			cfg.Filter.Conservative, cfg.Filter.Progressive,
			st.FilterHits, st.FilterFalseHits, 100*st.Identified())
	}
	fmt.Printf("step 3 (%s):   %8d pairs tested, %d hits; ops: %s\n",
		engineName, st.ExactTested, st.ExactHits, st.Ops.String())
	fmt.Printf("\nresponse set: %d pairs (%s)\n", len(pairs), pred)
	if *explain && ex.Plan.Planned {
		fmt.Printf("plan accuracy: candidates %.2fx (predicted/actual; 1 is perfect)\n", ex.CandidateError)
	}

	b, err := modelledCost(st)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("modelled cost (section 5): MBR-join %.1fs + object access %.1fs + exact %.1fs = %.1fs\n",
		b.MBRJoin, b.ObjectAccess, b.ExactTest, b.Total())
}

// modelledCost is the section 5 model of a finished join. The model
// prices a pair by the engine that tested it and tile pairs choose their
// engines independently, so it is summed over the sub-joins, each under
// the engine its plan record names.
func modelledCost(st shard.JoinStats) (plan.Breakdown, error) {
	var b plan.Breakdown
	for _, sub := range st.PerTile {
		e, err := multistep.ParseEngine(sub.Explain.Plan.Engine)
		if err != nil {
			return b, err
		}
		m := plan.FromStats(sub.Stats.PageAccessesR+sub.Stats.PageAccessesS, sub.Stats.ExactTested, plan.Engine(e), plan.PaperParams())
		b.MBRJoin += m.MBRJoin
		b.ObjectAccess += m.ObjectAccess
		b.ExactTest += m.ExactTest
	}
	return b, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spatialjoin:", err)
	os.Exit(1)
}
