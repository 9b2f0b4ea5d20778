package experiments

import (
	"context"
	"fmt"
	"time"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/decomp"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/ops"
	"spatialjoin/internal/plan"
	"spatialjoin/internal/rstar"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/trstar"
)

// The ablation experiments quantify the design decisions DESIGN.md §8
// calls out, beyond what the paper's own figures cover.

// AblationDecomposition compares the three decomposition techniques of
// Figure 14 on the BW relation: component counts and the TR*-tree exact
// cost when each technique's components back the tree (trapezoids and
// triangles share the Trapezoid component type; triangles are trapezoids
// with two coincident corners).
func AblationDecomposition(e *Env) *Table {
	bw := e.BW()
	t := &Table{
		Title:  "Ablation — decomposition techniques (Figure 14, BW relation)",
		Header: []string{"technique", "avg components", "avg verts/component", "area error"},
	}
	type techn struct {
		name string
		run  func(p int) decomp.Stats
	}
	techs := []techn{
		{"trapezoids", func(i int) decomp.Stats { return decomp.TrapezoidStats(bw[i]) }},
		{"triangles", func(i int) decomp.Stats { return decomp.TriangleStats(bw[i]) }},
		{"convex parts", func(i int) decomp.Stats { return decomp.ConvexPartStats(bw[i]) }},
	}
	sample := 40
	if sample > len(bw) {
		sample = len(bw)
	}
	for _, tech := range techs {
		var comps, verts, areaErr float64
		for i := 0; i < sample; i++ {
			st := tech.run(i)
			comps += float64(st.Components)
			verts += float64(st.MaxVerts)
			diff := st.TotalArea - bw[i].Area()
			if diff < 0 {
				diff = -diff
			}
			areaErr += diff
		}
		t.AddRow(tech.name, fmt.Sprintf("%.0f", comps/float64(sample)),
			fmt.Sprintf("%.1f", verts/float64(sample)),
			fmt.Sprintf("%.2e", areaErr/float64(sample)))
	}
	t.Comment = "Trapezoids give the fewest components with exactly MBR-approximable shapes — the paper's choice."
	return t
}

// AblationTRCapacityWide sweeps the TR*-tree capacity beyond Figure 17's
// 3–5 range, showing the trend continues.
func AblationTRCapacityWide(e *Env) *Table {
	sd := e.SeriesByName("Europe A")
	rem := remainingPairs(sd)
	t := &Table{
		Title:  "Ablation — TR*-tree node capacity, extended sweep (Europe A)",
		Header: []string{"M", "#rect tests", "#trap tests", "weighted cost s"},
	}
	w := ops.PaperWeights()
	for _, m := range []int{3, 4, 5, 8, 16, 32} {
		var c ops.Counters
		for _, p := range rem {
			trstar.Intersects(e.Tree(sd, 'R', p.I, m), e.Tree(sd, 'S', p.J, m), &c)
		}
		t.AddRow(fmt.Sprint(m), fmt.Sprint(c.RectIntersection), fmt.Sprint(c.TrapIntersection),
			fmt.Sprintf("%.2f", c.Cost(w)))
	}
	t.Comment = "Figure 17's finding extends: small nodes stay best; cost grows steadily with M."
	return t
}

// Figure18Wall is the wall-clock companion of Figure 18: instead of the
// section 5 cost model it times the three processor versions on the host
// (preprocessing excluded, joins measured), confirming that the modelled
// factor-3 improvement also shows up in real execution time.
func Figure18Wall(p BigParams) *Table {
	r, s := bigRelations(p)
	t := &Table{
		Title:  "Figure 18 (wall clock) — total join time on this host",
		Header: []string{"version", "join wall s", "exact pairs"},
	}
	run := func(name string, cfg multistep.Config, rr, ss *multistep.Relation) (float64, int64) {
		// The paper builds exact representations (sorted vertices,
		// trapezoid TR*-trees) at object insertion time; prebuild them so
		// the timer covers query processing only, as in Figure 18.
		for _, rel := range []*multistep.Relation{rr, ss} {
			for _, o := range rel.Objects {
				if cfg.Engine == multistep.EngineTRStar {
					o.Tree(cfg.TRCapacity)
				} else {
					o.Prepared()
				}
			}
		}
		start := time.Now()
		_, st := seqJoin(rr, ss, cfg)
		wall := time.Since(start).Seconds()
		t.AddRow(name, fmt.Sprintf("%.2f", wall), fmt.Sprint(st.ExactTested))
		return wall, st.ExactTested
	}

	v1cfg := multistep.DefaultConfig()
	v1cfg.UseFilter = false
	v1cfg.Engine = multistep.EnginePlaneSweep
	r1 := multistep.NewRelation("R", r, v1cfg)
	s1 := multistep.NewRelation("S", s, v1cfg)
	w1, _ := run("version 1 (no filter, plane-sweep)", v1cfg, r1, s1)

	v2cfg := multistep.DefaultConfig()
	v2cfg.Engine = multistep.EnginePlaneSweep
	r2 := multistep.NewRelation("R", r, v2cfg)
	s2 := multistep.NewRelation("S", s, v2cfg)
	w2, _ := run("version 2 (5-C+MER filter, plane-sweep)", v2cfg, r2, s2)

	v3cfg := multistep.DefaultConfig()
	v3cfg.Engine = multistep.EngineTRStar
	w3, _ := run("version 3 (5-C+MER filter, TR*-tree)", v3cfg, r2, s2)

	t.Comment = fmt.Sprintf("Wall-clock speedups on this host: v1/v2 = %.2f, v1/v3 = %.2f.\n"+
		"Preprocessing (decomposition, TR*-tree builds) happens at insertion time as in the paper.\n"+
		"Wall clock has no disk component, so the gap is smaller than the modelled Figure 18; with\n"+
		"the paper's complex objects the exact step dominates and the TR*-tree's order-of-magnitude\n"+
		"advantage shows directly (Table 7, exact_engines example).", w1/w2, w1/w3)
	return t
}

// AblationParallelism models the section 6 outlook on one measured run:
// the version 3 join statistics fed through the CPU/I/O parallelism model
// for several disk and worker counts, plus the measured wall-clock scaling
// of the collected join (collect-then-sort) and the streamed one
// (WithStream: bounded channels, nothing materialized).
func AblationParallelism(p BigParams) *Table {
	r, s := bigRelations(p)
	cfg := multistep.DefaultConfig()
	cfg.BufferBytes = p.BufferBytes
	rr := multistep.NewRelation("R", r, cfg)
	ss := multistep.NewRelation("S", s, cfg)
	_, st := seqJoin(rr, ss, cfg)
	base := plan.FromStats(st.PageAccessesR+st.PageAccessesS, st.ExactTested, plan.Engine(cfg.Engine), plan.PaperParams())

	t := &Table{
		Title:  "Ablation — CPU and I/O parallelism (section 6 outlook, version 3 join)",
		Header: []string{"disks", "workers", "modelled total s", "wall s (collected)", "wall s (streamed)"},
	}
	for _, conf := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {8, 8}} {
		disks, workers := conf[0], conf[1]
		modelled := plan.ParallelBreakdown(base, disks, workers).Total()
		start := time.Now()
		if _, _, err := multistep.Join(context.Background(), rr, ss,
			multistep.WithConfig(cfg), multistep.WithWorkers(workers)); err != nil {
			panic(err)
		}
		wallParallel := time.Since(start).Seconds()
		// Consume the streamed pairs so both wall columns include
		// delivering every response pair (the collected join materializes them).
		var streamed int64
		start = time.Now()
		if _, _, err := multistep.Join(context.Background(), rr, ss,
			multistep.WithConfig(cfg), multistep.WithWorkers(workers),
			multistep.WithStream(func(multistep.Pair) { streamed++ })); err != nil {
			panic(err)
		}
		wallStream := time.Since(start).Seconds()
		t.AddRow(fmt.Sprint(disks), fmt.Sprint(workers),
			fmt.Sprintf("%.1f", modelled), fmt.Sprintf("%.2f", wallParallel),
			fmt.Sprintf("%.2f", wallStream))
	}
	t.Comment = "The modelled column divides I/O by the disk count and exact CPU by the worker count;\n" +
		"the wall columns measure real parallelism on this host. Both runs are the same pipeline\n" +
		"(partitioned step 1, pooled batches); streaming only keeps memory bounded by its depth."
	return t
}

// AblationBufferPolicy compares page-replacement policies on the MBR-join
// workload — the paper fixes LRU; this quantifies how much that choice
// matters.
func AblationBufferPolicy(p BigParams) *Table {
	r, s := bigRelations(p)
	t := &Table{
		Title:  "Ablation — buffer replacement policy (MBR-join page faults)",
		Header: []string{"policy", "page faults", "hit rate %"},
	}
	for _, pol := range []storage.Policy{storage.LRU, storage.FIFO, storage.Clock} {
		// Build two fresh trees whose buffers use the policy.
		cfg := rstar.Config{PageSize: 4096, LeafEntryBytes: 48, BufferBytes: p.BufferBytes, BufferPolicy: pol}
		t1 := rstar.New(cfg)
		t2 := rstar.New(cfg)
		for i, poly := range r {
			t1.Insert(rstar.Item{Rect: poly.Bounds(), ID: int32(i)})
		}
		for i, poly := range s {
			t2.Insert(rstar.Item{Rect: poly.Bounds(), ID: int32(i)})
		}
		t1.Buffer().Clear()
		t2.Buffer().Clear()
		rstar.JoinParallelAccess(context.Background(), t1, t2, t1.Buffer(), t2.Buffer(), 0, 1, func(int, rstar.Item, rstar.Item) {})
		faults := t1.Buffer().Misses() + t2.Buffer().Misses()
		total := t1.Buffer().Accesses() + t2.Buffer().Accesses()
		hitRate := 0.0
		if total > 0 {
			hitRate = 100 * float64(total-faults) / float64(total)
		}
		t.AddRow(pol.String(), fmt.Sprint(faults), fmt.Sprintf("%.1f", hitRate))
	}
	t.Comment = "LRU and FIFO run neck and neck on the synchronized traversal (either may edge out\n" +
		"the other by a few percent); Clock's coarser recency approximation pays noticeably more faults."
	return t
}

// AblationFilterCombos runs every conservative×progressive filter pair on
// Europe A, end to end — the design space behind the paper's section 3.6
// recommendation.
func AblationFilterCombos(e *Env) *Table {
	sd := e.SeriesByName("Europe A")
	t := &Table{
		Title:  "Ablation — filter combinations, end to end (Europe A)",
		Header: []string{"conservative", "progressive", "identified %", "exact pairs", "entry bytes"},
	}
	for _, cons := range []approx.Kind{approx.MBC, approx.RMBR, approx.C4, approx.C5, approx.CH} {
		for _, prog := range []approx.Kind{approx.MEC, approx.MER} {
			cfg := multistep.DefaultConfig()
			cfg.Filter.Conservative = cons
			cfg.Filter.Progressive = prog
			cfg.MECPrecision = 2e-3
			r := multistep.NewRelation("R", sd.R, cfg)
			s := multistep.NewRelation("S", sd.S, cfg)
			_, st := seqJoin(r, s, cfg)
			t.AddRow(cons.String(), prog.String(),
				fmt.Sprintf("%.0f", 100*st.Identified()),
				fmt.Sprint(st.ExactTested),
				fmt.Sprint(multistep.EntryBytes(cfg)))
		}
	}
	t.Comment = "The paper's 5-C + MER sits at the knee: near-CH identification at a quarter of the storage."
	return t
}
