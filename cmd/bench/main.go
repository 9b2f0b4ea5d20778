// Command bench runs the paper's join workloads end to end and emits a
// versioned JSON measurement file — the performance trajectory of the
// repository. Each invocation measures the current build and writes (or
// updates) one labelled run in the output file, so successive PRs append
// comparable before/after numbers measured on the same machine:
//
//	go run ./cmd/bench -label baseline  -out BENCH_PR5.json
//	... optimize ...
//	go run ./cmd/bench -label optimized -out BENCH_PR5.json
//
// The workload grid is the paper's: the intersection join, the inclusion
// (contains) join and the within-distance (ε-)join, across the three
// exact engines and a set of worker counts, plus the tile-sharded
// scatter-gather join at the -shards tile counts. Relations are generated once
// (the section 5 style synthetic maps) and shared across workloads; every
// workload is warmed up once (paying the lazy per-object exact
// representations) and then measured over -reps repetitions with the
// process-wide allocation counters sampled around the measured window.
//
// Reported per workload: wall ns/op, response pairs/sec, ns per candidate
// pair (the unit the paper's per-step costs are expressed in), allocs/op
// and bytes/op. Reported per run: Go version, GOMAXPROCS, and the peak
// RSS of the process (VmHWM, Linux only).
//
// -planner switches to the adaptive-planning comparison grid: every
// static configuration of the paper grid (engine × filter, sequential)
// is measured next to the planner-chosen execution of the same join
// (multistep.WithPlan, nothing pinned) for each predicate. The summary
// line per predicate reports the planner's wall time as a multiple of
// the best static cell — the committed BENCH_PR7.json pins the ≤ 1.5×
// guarantee the regression tests enforce.
//
// -repeat N switches to the hot-query serving mode: N requests of a
// Zipf-skewed query mix (joins, windows, points, nearest) replayed
// against the HTTP serving layer twice — with the result cache disabled
// and with the default multi-query execution layer (single-flight
// coalescing, fingerprint-keyed LRU, batched traversals; DESIGN.md
// §12). The two rows report qps and cache_hit_rate side by side; the
// committed BENCH_PR8.json pins the hot-path speedup.
//
// -check validates an existing measurement file (parse + schema) and
// exits; CI uses it to keep the committed BENCH_*.json files honest.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"spatialjoin/internal/benchfmt"
	"spatialjoin/internal/data"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/serve"
	"spatialjoin/internal/shard"
)

// The measurement-file schema lives in internal/benchfmt, shared with
// cmd/loadtest (the service-level load harness appends its closed-loop
// runs to the same trajectory files this command validates).
type (
	Run      = benchfmt.Run
	Workload = benchfmt.Workload
	Result   = benchfmt.Result
)

func main() {
	out := flag.String("out", "BENCH_PR5.json", "measurement file to write or update")
	label := flag.String("label", "current", "label of this run (an existing run with the same label is replaced)")
	commit := flag.String("commit", "", "commit identifier recorded with the run")
	n := flag.Int("n", 1200, "objects per relation")
	verts := flag.Int("verts", 48, "average vertices per object")
	seed := flag.Int64("seed", 4242, "data seed")
	reps := flag.Int("reps", 5, "measured repetitions per workload")
	epsilon := flag.Float64("epsilon", 0.005, "distance bound of the within workloads")
	workersFlag := flag.String("workers", "1,4", "comma-separated worker counts for the intersects workloads")
	shardsFlag := flag.String("shards", "1,2,4", "comma-separated tile counts for the sharded workloads (empty: skip)")
	plannerMode := flag.Bool("planner", false, "measure the planner-chosen execution against every static engine×filter cell per predicate")
	repeat := flag.Int("repeat", 0, "hot-query serving mode: replay this many requests of a Zipf-skewed query mix against the HTTP serving layer, cache off then on")
	check := flag.String("check", "", "validate an existing measurement file and exit")
	flag.Parse()

	if *check != "" {
		if err := benchfmt.Validate(*check); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid measurement file\n", *check)
		return
	}

	workers, err := parseWorkers(*workersFlag)
	if err != nil {
		fatal(err)
	}
	var shardCounts []int
	if *shardsFlag != "" {
		if shardCounts, err = parseWorkers(*shardsFlag); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("generating 2×%d objects (~%d vertices, seed %d)...\n", *n, *verts, *seed)
	base := data.GenerateMap(data.MapConfig{Cells: *n, TargetVerts: *verts, Seed: *seed})
	shifted := data.StrategyA(base, 0.45)
	cfg := multistep.DefaultConfig()
	t0 := time.Now()
	rr := multistep.NewRelation("R", base, cfg)
	ss := multistep.NewRelation("S", shifted, cfg)
	fmt.Printf("preprocessing: %.2fs\n", time.Since(t0).Seconds())

	run := Run{
		Label:      *label,
		Commit:     *commit,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        benchfmt.CPUModel(),
		Workload: Workload{
			Objects: *n, Verts: *verts, Seed: *seed, Epsilon: *epsilon,
			Reps: *reps, Shifted: 0.45, PageSize: cfg.PageSize,
		},
	}

	engines := []multistep.Engine{multistep.EngineTRStar, multistep.EnginePlaneSweep, multistep.EngineQuadratic}

	if *repeat > 0 {
		run.Results = append(run.Results, measureServing(rr, ss, cfg, *epsilon, *repeat)...)
	} else if *plannerMode {
		// The planner comparison: per predicate, every static engine ×
		// filter cell (sequential — the planner may still choose more
		// workers for itself), then the planner-chosen execution of the
		// same join with nothing pinned.
		preds := []multistep.Predicate{
			multistep.Intersects(),
			multistep.WithinDistance(*epsilon),
			multistep.Contains(),
		}
		for _, pred := range preds {
			var best, worst Result
			for _, eng := range engines {
				for _, filt := range []bool{true, false} {
					res := measure(rr, ss, cfg, pred, eng, filt, 1, *reps)
					if best.Name == "" || res.WallNsPerOp < best.WallNsPerOp {
						best = res
					}
					if worst.Name == "" || res.WallNsPerOp > worst.WallNsPerOp {
						worst = res
					}
					run.Results = append(run.Results, res)
				}
			}
			pres := measurePlanned(rr, ss, pred, *reps)
			run.Results = append(run.Results, pres)
			fmt.Printf("  planner %-10s %8.1f ms/op = %.2fx best static (%s %.1f ms), worst %s %.1f ms\n",
				predName(pred), pres.WallNsPerOp/1e6, pres.WallNsPerOp/best.WallNsPerOp,
				best.Name, best.WallNsPerOp/1e6, worst.Name, worst.WallNsPerOp/1e6)
		}
	} else {
		// The intersection join: every engine at every worker count.
		for _, eng := range engines {
			for _, w := range workers {
				run.Results = append(run.Results,
					measure(rr, ss, cfg, multistep.Intersects(), eng, true, w, *reps))
			}
		}
		// The within-distance join: every engine, sequential (the distance
		// kernels are the variable under test, not the fan-out).
		for _, eng := range engines {
			run.Results = append(run.Results,
				measure(rr, ss, cfg, multistep.WithinDistance(*epsilon), eng, true, 1, *reps))
		}
		// The inclusion join: the exact inclusion test is engine-independent.
		run.Results = append(run.Results,
			measure(rr, ss, cfg, multistep.Contains(), multistep.EngineTRStar, true, 1, *reps))
		// The tile-sharded scatter-gather join (internal/shard): the
		// intersection workload at each tile count, default engine. One tile
		// prices the coordinator overhead over the monolithic join.
		for _, tiles := range shardCounts {
			shR := shard.Build("R", base, tiles, cfg)
			shS := shard.Build("S", shifted, tiles, cfg)
			run.Results = append(run.Results, measureSharded(shR, shS, cfg, tiles, *reps))
		}
	}

	run.PeakRSSBytes = benchfmt.PeakRSS()

	if err := benchfmt.WriteRun(*out, run); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote run %q (%d workloads) to %s\n", run.Label, len(run.Results), *out)
}

// measure runs one workload cell: a warm-up join (paying the lazy exact
// representations), then reps measured joins with the allocation counters
// sampled around the whole window. useFilter false switches the
// geometric filter off at query time (the static filter dimension of
// the planner comparison).
func measure(r, s *multistep.Relation, cfg multistep.Config, pred multistep.Predicate, eng multistep.Engine, useFilter bool, workers, reps int) Result {
	cfg.Engine = eng
	cfg.UseFilter = cfg.UseFilter && useFilter
	opts := []multistep.Option{
		multistep.WithConfig(cfg),
		multistep.WithPredicate(pred),
		multistep.WithWorkers(workers),
		multistep.WithBufferless(),
	}
	join := func() multistep.Stats {
		_, st, err := multistep.Join(context.Background(), r, s, opts...)
		if err != nil {
			fatal(err)
		}
		return st
	}
	st := join() // warm-up

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		st = join()
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)

	name := fmt.Sprintf("%s/%s/w%d", predName(pred), engineName(eng), workers)
	if !cfg.UseFilter {
		name = fmt.Sprintf("%s/%s/nofilter/w%d", predName(pred), engineName(eng), workers)
	}
	res := Result{
		Name:           name,
		Predicate:      predName(pred),
		Engine:         engineName(eng),
		Workers:        workers,
		NoFilter:       !cfg.UseFilter,
		WallNsPerOp:    float64(wall.Nanoseconds()) / float64(reps),
		ResultPairs:    st.ResultPairs,
		CandidatePairs: st.CandidatePairs,
		AllocsPerOp:    float64(after.Mallocs-before.Mallocs) / float64(reps),
		BytesPerOp:     float64(after.TotalAlloc-before.TotalAlloc) / float64(reps),
	}
	if res.WallNsPerOp > 0 {
		res.PairsPerSec = float64(st.ResultPairs) * 1e9 / res.WallNsPerOp
	}
	if st.CandidatePairs > 0 {
		res.NsPerCandidate = res.WallNsPerOp / float64(st.CandidatePairs)
	}
	fmt.Printf("  %-28s %10.1f ms/op %12.0f pairs/sec %10.0f allocs/op\n",
		res.Name, res.WallNsPerOp/1e6, res.PairsPerSec, res.AllocsPerOp)
	return res
}

// measurePlanned measures the planner-chosen execution of one join:
// nothing pinned, multistep.WithPlan resolves engine, filter and worker
// count from the relations' statistics (warm-up included, so the
// measured window also benefits from one round of feedback, as a served
// deployment would).
func measurePlanned(r, s *multistep.Relation, pred multistep.Predicate, reps int) Result {
	var ex multistep.Explain
	opts := []multistep.Option{
		multistep.WithPredicate(pred),
		multistep.WithPlan(),
		multistep.WithBufferless(),
		multistep.WithExplain(&ex),
	}
	join := func() multistep.Stats {
		_, st, err := multistep.Join(context.Background(), r, s, opts...)
		if err != nil {
			fatal(err)
		}
		return st
	}
	st := join() // warm-up

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		st = join()
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)

	res := Result{
		Name:           fmt.Sprintf("planner/%s", predName(pred)),
		Predicate:      predName(pred),
		Engine:         ex.Plan.Engine,
		Workers:        ex.Plan.Workers,
		Planned:        true,
		NoFilter:       !ex.Plan.UseFilter,
		WallNsPerOp:    float64(wall.Nanoseconds()) / float64(reps),
		ResultPairs:    st.ResultPairs,
		CandidatePairs: st.CandidatePairs,
		AllocsPerOp:    float64(after.Mallocs-before.Mallocs) / float64(reps),
		BytesPerOp:     float64(after.TotalAlloc-before.TotalAlloc) / float64(reps),
	}
	if res.WallNsPerOp > 0 {
		res.PairsPerSec = float64(st.ResultPairs) * 1e9 / res.WallNsPerOp
	}
	if st.CandidatePairs > 0 {
		res.NsPerCandidate = res.WallNsPerOp / float64(st.CandidatePairs)
	}
	fmt.Printf("  %-28s %10.1f ms/op %12.0f pairs/sec %10.0f allocs/op\n",
		res.Name, res.WallNsPerOp/1e6, res.PairsPerSec, res.AllocsPerOp)
	return res
}

// measureServing is the -repeat hot-query mode: the same Zipf-skewed
// request sequence replayed against the HTTP serving layer twice — once
// with the result cache disabled (every request re-executes) and once
// with the default multi-query execution (DESIGN.md §12). The reported
// QPS pair prices the shared-work layer on a skewed, repetitive
// workload; CacheHitRate is the fraction of requests the cache
// answered.
func measureServing(rr, ss *multistep.Relation, cfg multistep.Config, eps float64, total int) []Result {
	cat := serve.NewCatalog()
	cat.Add("R", shard.FromRelation(rr))
	cat.Add("S", shard.FromRelation(ss))

	// The distinct queries of the mix, hottest first. plan=off pins the
	// configuration so both servers execute identical physical plans.
	urls := []string{
		"/join?r=R&s=S&limit=100&plan=off",
		"/window?rel=R&minx=0.2&miny=0.2&maxx=0.45&maxy=0.4&plan=off",
		fmt.Sprintf("/join?r=R&s=S&epsilon=%g&limit=100&plan=off", eps),
		"/point?rel=R&x=0.31&y=0.47&plan=off",
		"/nearest?rel=S&x=0.52&y=0.33&k=8",
		"/join?r=R&s=S&predicate=contains&plan=off",
		"/window?rel=S&minx=0.55&miny=0.1&maxx=0.8&maxy=0.3&plan=off",
		"/point?rel=S&x=0.72&y=0.64&plan=off",
		"/window?rel=R&minx=0.05&miny=0.6&maxx=0.3&maxy=0.9&epsilon=0.02&plan=off",
		"/nearest?rel=R&x=0.12&y=0.81&k=4",
	}
	// Zipf-ish skew: rank k draws with weight 1/(k+1). A fixed LCG
	// replays the identical sequence for both servers.
	var table []int
	for k := range urls {
		for n := 0; n < 2*len(urls)/(k+1); n++ {
			table = append(table, k)
		}
	}
	seq := make([]int, total)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range seq {
		x = x*6364136223846793005 + 1442695040888963407
		seq[i] = table[(x>>33)%uint64(len(table))]
	}

	var out []Result
	for _, cached := range []bool{false, true} {
		srv := serve.NewServer(cat)
		if !cached {
			srv.CacheBytes = -1
		}
		h := srv.Handler()
		do := func(url string) {
			req := httptest.NewRequest("GET", url, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				fatal(fmt.Errorf("GET %s: status %d: %s", url, rec.Code, rec.Body))
			}
		}
		// Warm-up: one pass over the distinct queries. It pays the lazy
		// exact representations on both servers; on the cached server it
		// also pre-fills the cache — the hot-serving scenario under test.
		for _, u := range urls {
			do(u)
		}
		t0 := time.Now()
		for _, k := range seq {
			do(urls[k])
		}
		wall := time.Since(t0)

		name := "serve/hot/nocache"
		if cached {
			name = "serve/hot/cache"
		}
		res := Result{
			Name:        name,
			Predicate:   "mix",
			Engine:      "serve",
			Workers:     runtime.GOMAXPROCS(0),
			WallNsPerOp: float64(wall.Nanoseconds()) / float64(total),
			QPS:         float64(total) / wall.Seconds(),
		}
		if cached {
			req := httptest.NewRequest("GET", "/stats", nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var st struct {
				Cache struct {
					Hits   int64 `json:"hits"`
					Misses int64 `json:"misses"`
				} `json:"cache"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				fatal(err)
			}
			if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
				res.CacheHitRate = float64(st.Cache.Hits) / float64(lookups)
			}
		}
		fmt.Printf("  %-28s %10.2f ms/op %12.0f qps   hit rate %.3f\n",
			res.Name, res.WallNsPerOp/1e6, res.QPS, res.CacheHitRate)
		out = append(out, res)
	}
	return out
}

// measureSharded is measure for the scatter-gather join of two sharded
// relations (tile-pair sub-joins, merged response).
func measureSharded(r, s *shard.Sharded, cfg multistep.Config, tiles, reps int) Result {
	opts := []multistep.Option{
		multistep.WithConfig(cfg),
		multistep.WithBufferless(),
	}
	join := func() shard.JoinStats {
		_, st, err := shard.Join(context.Background(), r, s, opts...)
		if err != nil {
			fatal(err)
		}
		return st
	}
	st := join() // warm-up

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		st = join()
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)

	res := Result{
		Name:           fmt.Sprintf("sharded/%s/t%d", engineName(cfg.Engine), tiles),
		Predicate:      "intersects",
		Engine:         engineName(cfg.Engine),
		Workers:        runtime.GOMAXPROCS(0),
		Shards:         tiles,
		WallNsPerOp:    float64(wall.Nanoseconds()) / float64(reps),
		ResultPairs:    st.ResultPairs,
		CandidatePairs: st.CandidatePairs,
		AllocsPerOp:    float64(after.Mallocs-before.Mallocs) / float64(reps),
		BytesPerOp:     float64(after.TotalAlloc-before.TotalAlloc) / float64(reps),
	}
	if res.WallNsPerOp > 0 {
		res.PairsPerSec = float64(st.ResultPairs) * 1e9 / res.WallNsPerOp
	}
	if st.CandidatePairs > 0 {
		res.NsPerCandidate = res.WallNsPerOp / float64(st.CandidatePairs)
	}
	fmt.Printf("  %-28s %10.1f ms/op %12.0f pairs/sec %10.0f allocs/op\n",
		res.Name, res.WallNsPerOp/1e6, res.PairsPerSec, res.AllocsPerOp)
	return res
}

func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		out = append(out, w)
	}
	return out, nil
}

func predName(p multistep.Predicate) string {
	name := p.String()
	if i := strings.IndexByte(name, '('); i >= 0 {
		name = name[:i]
	}
	return name
}

func engineName(e multistep.Engine) string {
	switch e {
	case multistep.EngineTRStar:
		return "trstar"
	case multistep.EnginePlaneSweep:
		return "planesweep"
	case multistep.EngineQuadratic:
		return "quadratic"
	}
	return "engine?"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
