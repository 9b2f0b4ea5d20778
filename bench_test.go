// Package spatialjoin_test benchmarks every experiment of the paper's
// evaluation (one benchmark per table and figure, named after DESIGN.md's
// per-experiment index) plus micro-benchmarks of the individual substrates
// and ablation benchmarks for the design choices the paper calls out.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The first benchmark that touches the experiment environment pays the
// one-time preprocessing of the four test series.
package spatialjoin_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/data"
	"spatialjoin/internal/decomp"
	"spatialjoin/internal/exact"
	"spatialjoin/internal/experiments"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/ops"
	"spatialjoin/internal/rstar"
	"spatialjoin/internal/shard"
	"spatialjoin/internal/trstar"
)

var (
	envOnce  sync.Once
	benchEnv *experiments.Env
)

func env() *experiments.Env {
	envOnce.Do(func() { benchEnv = experiments.NewEnv() })
	return benchEnv
}

// benchBig returns big-relation parameters sized for benchmarking.
func benchBig() experiments.BigParams {
	p := experiments.DefaultBigParams()
	p.N = 6000
	p.Points = 200
	p.Windows = 60
	return p
}

// ---------------------------------------------------------------------
// One benchmark per table and figure (DESIGN.md per-experiment index).
// ---------------------------------------------------------------------

func BenchmarkFigure2_RelationStats(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure2(e)
	}
}

func BenchmarkTable1_MBRFalseArea(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		_ = experiments.Table1(e)
	}
}

func BenchmarkTable2_TestSeries(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		_ = experiments.Table2(e)
	}
}

func BenchmarkTable3_ConservativeFilter(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		_ = experiments.Table3(e)
	}
}

func BenchmarkTable4_FalseAreaTest(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		_ = experiments.Table4(e)
	}
}

func BenchmarkTable5_ProgressiveFilter(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		_ = experiments.Table5(e)
	}
}

func BenchmarkTable6_OperationWeights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.MeasureWeights()
	}
}

func BenchmarkTable7_ExactAlgorithms(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		_, _ = experiments.Table7(e)
	}
}

func BenchmarkFigure4_ApproximationQuality(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure4(e)
	}
}

func BenchmarkFigure5_FalseAreaVsFalseHits(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure5(e)
	}
}

func BenchmarkFigure8_ProgressiveQuality(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure8(e)
	}
}

func BenchmarkFigure10_KeyVsAdditional(b *testing.B) {
	p := benchBig()
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure10(p)
	}
}

func BenchmarkFigure11_FilterPayoff(b *testing.B) {
	p := benchBig()
	for i := 0; i < b.N; i++ {
		_, _ = experiments.Figure11(p)
	}
}

func BenchmarkFigure12_CandidateDivision(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure12(e)
	}
}

func BenchmarkFigure16_CostVsEdges(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		_, _ = experiments.Figure16(e)
	}
}

func BenchmarkFigure17_NodeCapacity(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		_, _ = experiments.Figure17(e)
	}
}

func BenchmarkFigure18_TotalPerformance(b *testing.B) {
	p := benchBig()
	for i := 0; i < b.N; i++ {
		_, _ = experiments.Figure18(p)
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the substrates.
// ---------------------------------------------------------------------

// benchPolys returns a deterministic workload of medium-complexity
// polygons plus a shifted partner relation.
func benchPolys(n, verts int) ([]*geom.Polygon, []*geom.Polygon) {
	r := data.GenerateMap(data.MapConfig{Cells: n, TargetVerts: verts, Seed: 4242})
	return r, data.StrategyA(r, 0.45)
}

func BenchmarkRStarInsert(b *testing.B) {
	r, _ := benchPolys(2000, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := rstar.New(rstar.DefaultConfig())
		for id, p := range r {
			t.Insert(rstar.Item{Rect: p.Bounds(), ID: int32(id)})
		}
	}
}

func BenchmarkRStarWindowQuery(b *testing.B) {
	r, _ := benchPolys(5000, 16)
	t := rstar.New(rstar.DefaultConfig())
	for id, p := range r {
		t.Insert(rstar.Item{Rect: p.Bounds(), ID: int32(id)})
	}
	w := geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.45, MaxY: 0.45}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.WindowQuery(w, func(rstar.Item) {})
	}
}

func BenchmarkMBRJoin(b *testing.B) {
	r, s := benchPolys(3000, 16)
	t1 := rstar.New(rstar.DefaultConfig())
	t2 := rstar.New(rstar.DefaultConfig())
	for id, p := range r {
		t1.Insert(rstar.Item{Rect: p.Bounds(), ID: int32(id)})
	}
	for id, p := range s {
		t2.Insert(rstar.Item{Rect: p.Bounds(), ID: int32(id)})
	}
	b.ResetTimer()
	var pairs int64
	for i := 0; i < b.N; i++ {
		pairs = 0
		rstar.JoinParallelAccess(context.Background(), t1, t2, t1.Buffer(), t2.Buffer(), 0, 1,
			func(int, rstar.Item, rstar.Item) { pairs++ })
	}
	b.ReportMetric(float64(pairs), "pairs")
}

func BenchmarkApproxCompute5CMER(b *testing.B) {
	r, _ := benchPolys(64, 84)
	opt := approx.Options{Conservative: []approx.Kind{approx.C5}, Progressive: []approx.Kind{approx.MER}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = approx.Compute(r[i%len(r)], opt)
	}
}

func BenchmarkTrapezoidize(b *testing.B) {
	r, _ := benchPolys(64, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = decomp.Trapezoidize(r[i%len(r)])
	}
}

func BenchmarkTRStarBuild(b *testing.B) {
	r, _ := benchPolys(64, 256)
	traps := make([][]decomp.Trapezoid, len(r))
	for i, p := range r {
		traps[i] = decomp.Trapezoidize(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = trstar.New(traps[i%len(traps)], 3)
	}
}

func BenchmarkExactPair(b *testing.B) {
	r, s := benchPolys(64, 256)
	var c ops.Counters
	prepR := make([]*exact.PreparedPolygon, len(r))
	prepS := make([]*exact.PreparedPolygon, len(s))
	treeR := make([]*trstar.Tree, len(r))
	treeS := make([]*trstar.Tree, len(s))
	for i := range r {
		prepR[i] = exact.Prepare(r[i])
		prepS[i] = exact.Prepare(s[i])
		treeR[i] = trstar.NewFromPolygon(r[i], 3)
		treeS[i] = trstar.NewFromPolygon(s[i], 3)
	}
	b.Run("quadratic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := i % len(r)
			exact.QuadraticIntersects(prepR[k], prepS[k], &c)
		}
	})
	b.Run("planesweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := i % len(r)
			exact.PlaneSweepIntersects(prepR[k], prepS[k], true, &c)
		}
	})
	b.Run("trstar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := i % len(r)
			trstar.Intersects(treeR[k], treeS[k], &c)
		}
	})
}

func BenchmarkMultiStepJoin(b *testing.B) {
	r, s := benchPolys(600, 48)
	cfg := multistep.DefaultConfig()
	rr := multistep.NewRelation("R", r, cfg)
	ss := multistep.NewRelation("S", s, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchJoin(b, rr, ss, cfg, 1)
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md section 8).
// ---------------------------------------------------------------------

// BenchmarkAblationDecomposition compares the three decomposition
// techniques of Figure 14 as the basis of the TR*-tree exact test.
func BenchmarkAblationDecomposition(b *testing.B) {
	r, _ := benchPolys(64, 256)
	b.Run("trapezoids", func(b *testing.B) {
		var comps int
		for i := 0; i < b.N; i++ {
			comps = decomp.TrapezoidStats(r[i%len(r)]).Components
		}
		b.ReportMetric(float64(comps), "components")
	})
	b.Run("triangles", func(b *testing.B) {
		var comps int
		for i := 0; i < b.N; i++ {
			comps = decomp.TriangleStats(r[i%len(r)]).Components
		}
		b.ReportMetric(float64(comps), "components")
	})
	b.Run("convexparts", func(b *testing.B) {
		var comps int
		for i := 0; i < b.N; i++ {
			comps = decomp.ConvexPartStats(r[i%len(r)]).Components
		}
		b.ReportMetric(float64(comps), "components")
	})
}

// BenchmarkAblationTRCapacity sweeps the TR*-tree node capacity beyond the
// paper's Figure 17 range.
func BenchmarkAblationTRCapacity(b *testing.B) {
	r, s := benchPolys(64, 256)
	for _, m := range []int{3, 4, 5, 8, 16} {
		treesR := make([]*trstar.Tree, len(r))
		treesS := make([]*trstar.Tree, len(s))
		for i := range r {
			treesR[i] = trstar.NewFromPolygon(r[i], m)
			treesS[i] = trstar.NewFromPolygon(s[i], m)
		}
		b.Run(map[int]string{3: "M3", 4: "M4", 5: "M5", 8: "M8", 16: "M16"}[m], func(b *testing.B) {
			var c ops.Counters
			for i := 0; i < b.N; i++ {
				k := i % len(r)
				trstar.Intersects(treesR[k], treesS[k], &c)
			}
			b.ReportMetric(c.Cost(ops.PaperWeights())/float64(b.N)*1e6, "µs-weighted/op")
		})
	}
}

// BenchmarkAblationSweepRestriction quantifies section 4.1's search-space
// restriction (the paper reports ≈40 % savings on false hits).
func BenchmarkAblationSweepRestriction(b *testing.B) {
	r, s := benchPolys(64, 256)
	prepR := make([]*exact.PreparedPolygon, len(r))
	prepS := make([]*exact.PreparedPolygon, len(s))
	for i := range r {
		prepR[i] = exact.Prepare(r[i])
		prepS[i] = exact.Prepare(s[i])
	}
	for _, restrict := range []bool{false, true} {
		name := "unrestricted"
		if restrict {
			name = "restricted"
		}
		b.Run(name, func(b *testing.B) {
			var c ops.Counters
			for i := 0; i < b.N; i++ {
				k := i % len(r)
				exact.PlaneSweepIntersects(prepR[k], prepS[k], restrict, &c)
			}
			b.ReportMetric(c.Cost(ops.PaperWeights())/float64(b.N)*1e6, "µs-weighted/op")
		})
	}
}

// BenchmarkAblationStep1 compares the candidate generators of step 1: the
// R*-tree join [BKS 93a], the Z-order sort-merge [Ore 86] and nested
// loops (section 2.3).
func BenchmarkAblationStep1(b *testing.B) {
	r, s := benchPolys(1500, 24)
	for _, step1 := range []multistep.Step1{multistep.Step1RStar, multistep.Step1ZOrder, multistep.Step1NestedLoops} {
		cfg := multistep.DefaultConfig()
		cfg.Step1 = step1
		rr := multistep.NewRelation("R", r, cfg)
		ss := multistep.NewRelation("S", s, cfg)
		name := map[multistep.Step1]string{
			multistep.Step1RStar: "rstar", multistep.Step1ZOrder: "zorder", multistep.Step1NestedLoops: "nested",
		}[step1]
		b.Run(name, func(b *testing.B) {
			var cands int64
			for i := 0; i < b.N; i++ {
				cands = benchJoin(b, rr, ss, cfg, 1).CandidatePairs
			}
			b.ReportMetric(float64(cands), "candidates")
		})
	}
}

// BenchmarkAblationBuildStrategy compares dynamic R*-tree insertion with
// STR bulk loading.
func BenchmarkAblationBuildStrategy(b *testing.B) {
	r, _ := benchPolys(8000, 12)
	items := make([]rstar.Item, len(r))
	for i, p := range r {
		items[i] = rstar.Item{Rect: p.Bounds(), ID: int32(i)}
	}
	b.Run("dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := rstar.New(rstar.DefaultConfig())
			for _, it := range items {
				t.Insert(it)
			}
		}
	})
	b.Run("bulkload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = rstar.BulkLoad(items, rstar.DefaultConfig())
		}
	})
}

// BenchmarkAblationSplitAlgorithm compares the R*-tree topological split
// with Guttman's quadratic split on query page touches.
func BenchmarkAblationSplitAlgorithm(b *testing.B) {
	r, _ := benchPolys(6000, 12)
	for _, split := range []rstar.SplitAlgorithm{rstar.SplitRStar, rstar.SplitQuadraticGuttman} {
		cfg := rstar.DefaultConfig()
		cfg.Split = split
		tree := rstar.New(cfg)
		for i, p := range r {
			tree.Insert(rstar.Item{Rect: p.Bounds(), ID: int32(i)})
		}
		name := "rstar"
		if split == rstar.SplitQuadraticGuttman {
			name = "guttman"
		}
		w := geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.38, MaxY: 0.38}
		b.Run(name, func(b *testing.B) {
			tree.Buffer().Clear()
			for i := 0; i < b.N; i++ {
				tree.WindowQuery(w, func(rstar.Item) {})
			}
			b.ReportMetric(float64(tree.Buffer().Accesses())/float64(b.N), "page-touches/op")
		})
	}
}

// BenchmarkParallelJoin measures the section 6 future-work CPU parallelism.
func BenchmarkParallelJoin(b *testing.B) {
	r, s := benchPolys(1200, 48)
	cfg := multistep.DefaultConfig()
	rr := multistep.NewRelation("R", r, cfg)
	ss := multistep.NewRelation("S", s, cfg)
	for _, workers := range []int{1, 4} {
		name := map[int]string{1: "w1", 4: "w4"}[workers]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchJoin(b, rr, ss, cfg, workers)
			}
		})
	}
}

// BenchmarkJoinThroughput compares the delivery modes of the one join
// driver on the paper-style generated workload and reports end-to-end
// throughput in response pairs per second: the one-worker Join, the
// collected multi-worker Join and the streamed one (WithStream), each at
// 1, 2, 4 and GOMAXPROCS workers. Each mode is measured at its own
// contract: a collected join delivers the sorted, materialized response
// set; a streamed one delivers unsorted pairs to a consumer callback
// (collected here so every mode pays for handling each response pair).
func BenchmarkJoinThroughput(b *testing.B) {
	r, s := benchPolys(1200, 48)
	cfg := multistep.DefaultConfig()
	rr := multistep.NewRelation("R", r, cfg)
	ss := multistep.NewRelation("S", s, cfg)

	workerCounts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	reportPairs := func(b *testing.B, pairs int64) {
		b.ReportMetric(float64(pairs)*float64(b.N)/b.Elapsed().Seconds(), "pairs/sec")
	}

	b.Run("join/seq", func(b *testing.B) {
		var pairs int64
		for i := 0; i < b.N; i++ {
			pairs = benchJoin(b, rr, ss, cfg, 1).ResultPairs
		}
		reportPairs(b, pairs)
	})
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("collect/w%d", w), func(b *testing.B) {
			var pairs int64
			for i := 0; i < b.N; i++ {
				pairs = benchJoin(b, rr, ss, cfg, w).ResultPairs
			}
			reportPairs(b, pairs)
		})
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("stream/w%d", w), func(b *testing.B) {
			var pairs int64
			var out []multistep.Pair
			for i := 0; i < b.N; i++ {
				out = out[:0]
				_, st, err := multistep.Join(context.Background(), rr, ss,
					multistep.WithConfig(cfg), multistep.WithWorkers(w),
					multistep.WithStream(func(p multistep.Pair) { out = append(out, p) }))
				if err != nil {
					b.Fatal(err)
				}
				pairs = st.ResultPairs
			}
			reportPairs(b, pairs)
		})
	}

	// Allocation sub-benchmarks (run with -benchmem): steady-state
	// allocations per join op and per response pair for the sequential,
	// parallel and streaming modes. The allocation-regression guards pin
	// the hot kernels at zero; these benchmarks track the whole-pipeline
	// residue (channels, batches at their high-water mark, goroutines).
	allocModes := []struct {
		name    string
		workers int
		stream  bool
	}{
		{"alloc/seq", 1, false},
		{"alloc/parallel", runtime.GOMAXPROCS(0), false},
		{"alloc/stream", runtime.GOMAXPROCS(0), true},
	}
	for _, m := range allocModes {
		b.Run(m.name, func(b *testing.B) {
			opts := []multistep.Option{multistep.WithConfig(cfg), multistep.WithWorkers(m.workers)}
			var sink []multistep.Pair
			if m.stream {
				opts = append(opts, multistep.WithStream(func(p multistep.Pair) { sink = append(sink, p) }))
			}
			run := func() int64 {
				sink = sink[:0]
				_, st, err := multistep.Join(context.Background(), rr, ss, opts...)
				if err != nil {
					b.Fatal(err)
				}
				return st.ResultPairs
			}
			pairs := run() // warm pools, lazy representations, sink capacity
			b.ReportAllocs()
			b.ResetTimer()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := 0; i < b.N; i++ {
				pairs = run()
			}
			runtime.ReadMemStats(&ms1)
			if pairs > 0 {
				perOp := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N)
				b.ReportMetric(perOp/float64(pairs), "allocs/pair")
			}
		})
	}

	// Tile-sharded scatter-gather join (internal/shard) at 1, 2 and 4
	// tiles per side, same workload and contract as collect (globally
	// sorted response set). t1 prices the pure coordinator overhead over
	// the monolithic join; t2/t4 add the tile-pair fan-out.
	for _, tiles := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("sharded/t%d", tiles), func(b *testing.B) {
			shR := shard.Build("R", r, tiles, cfg)
			shS := shard.Build("S", s, tiles, cfg)
			b.ResetTimer()
			var pairs int64
			for i := 0; i < b.N; i++ {
				_, st, err := shard.Join(context.Background(), shR, shS, multistep.WithConfig(cfg))
				if err != nil {
					b.Fatal(err)
				}
				pairs = st.ResultPairs
			}
			reportPairs(b, pairs)
		})
	}

	// The within-distance (ε-)join enters the performance trajectory
	// alongside the intersection join: same pipeline, ε-expanded step 1,
	// distance-based filter and exact kernels.
	for _, eps := range []float64{0.005, 0.02} {
		b.Run(fmt.Sprintf("within/eps%g", eps), func(b *testing.B) {
			var pairs int64
			for i := 0; i < b.N; i++ {
				_, st, err := multistep.Join(context.Background(), rr, ss,
					multistep.WithConfig(cfg),
					multistep.WithPredicate(multistep.WithinDistance(eps)),
					multistep.WithBufferless())
				if err != nil {
					b.Fatal(err)
				}
				pairs = st.ResultPairs
			}
			reportPairs(b, pairs)
		})
	}
}

// BenchmarkAblationFilterChain compares filter configurations end to end.
func BenchmarkAblationFilterChain(b *testing.B) {
	r, s := benchPolys(600, 48)
	configs := []struct {
		name string
		mod  func(*multistep.Config)
	}{
		{"nofilter", func(c *multistep.Config) { c.UseFilter = false }},
		{"5C_only", func(c *multistep.Config) { c.Filter.NoProgressive = true }},
		{"MER_only", func(c *multistep.Config) { c.Filter.NoConservative = true }},
		{"5C_MER", func(c *multistep.Config) {}},
		{"5C_MER_falsearea", func(c *multistep.Config) { c.Filter.UseFalseArea = true }},
	}
	for _, cc := range configs {
		cfg := multistep.DefaultConfig()
		cc.mod(&cfg)
		rr := multistep.NewRelation("R", r, cfg)
		ss := multistep.NewRelation("S", s, cfg)
		b.Run(cc.name, func(b *testing.B) {
			var exactTested int64
			for i := 0; i < b.N; i++ {
				exactTested = benchJoin(b, rr, ss, cfg, 1).ExactTested
			}
			b.ReportMetric(float64(exactTested), "exact-pairs")
		})
	}
}

// benchJoin runs the unified join with the given worker count, failing
// the benchmark on error.
func benchJoin(b *testing.B, r, s *multistep.Relation, cfg multistep.Config, workers int) multistep.Stats {
	b.Helper()
	_, st, err := multistep.Join(context.Background(), r, s,
		multistep.WithConfig(cfg), multistep.WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	return st
}
