package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/data"
	"spatialjoin/internal/decomp"
	"spatialjoin/internal/exact"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/loadgen"
	"spatialjoin/internal/mqe"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/ops"
	"spatialjoin/internal/plan"
	"spatialjoin/internal/rstar"
	"spatialjoin/internal/serve"
	"spatialjoin/internal/shard"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/trstar"
)

// Span names: the public function each span times.
const (
	spBuildStore  = "loadgen.BuildStore"
	spStreamMap   = "data.StreamMap"
	spWriteTile   = "shard.StoreWriter.WriteTile"
	spApprox      = "approx.Compute"
	spTRBuild     = "trstar.New"
	spRInsert     = "rstar.Tree.Insert"
	spOpen        = "shard.Open"
	spRoundTrip   = "http.RoundTrip"
	spHandler     = "serve.Handler"
	spShardJoin   = "shard.Join"
	spMSJoin      = "multistep.Join"
	spChoose      = "plan.Choose"
	spRJoin       = "rstar.JoinParallelAccess"
	spClassify    = "approx.FilterConfig.Classify"
	spExact       = "step3.exact" // trstar.Intersects / trstar.WithinDistance, or the planner's engine
	spShardQuery  = "shard.Query"
	spSession     = "rstar.Tree.NewSession"
	spMSQuery     = "multistep.Query"
	spRWindow     = "rstar.Tree.WindowQueryAccess"
	spRNearest    = "rstar.Tree.NearestNeighborsAccess"
	spClassifyWin = "approx.FilterConfig.ClassifyWindow"
	spExactWin    = "exact.window" // exact.IntersectsRectExact, DistToRect or DistToPoint
	spCachePut    = "mqe.Cache.Put"
	spCacheGet    = "mqe.Cache.Get"
)

// counts are the work counters of the traced operations, taken where
// the work happens. They repeat exactly for a given seed.
type counts struct {
	candidates, rectTests  int64
	pageMisses, pageHits   int64
	filterDecided          int64
	exactTested, exactHits int64
	subJoins               int64
	planCalls              int64
	qerrSum                float64
	qerrN                  int64
	tiles, pageTouches     int64
	encodeBytes            int64
	cacheCalls             int64
	falseHits              int64
}

// runTraced is the --trace 1 run: a short untraced sample for the
// baseline latency, then a fixed number of operations replayed stage by
// stage on one processor, so that no layer overlaps another.
func (b *bench) runTraced() error {
	if err := b.initSpec(); err != nil {
		return err
	}
	tr := newTracer()
	var cnt counts
	w := b.opt.workload

	if w == wJoinIntersects {
		if err := b.replayBuild(tr); err != nil {
			return err
		}
	} else if err := b.buildStores(); err != nil {
		return err
	}
	storeBytes := int64(0)
	for _, side := range []string{"R", "S"} {
		var err error
		tr.do(0, 0, spOpen, func() { _, err = shard.Open(b.storeDir(side), b.cfg) })
		if err != nil {
			return err
		}
		n, err := dirBytes(b.storeDir(side))
		if err != nil {
			return err
		}
		storeBytes += n
	}

	sys, err := b.open()
	if err != nil {
		return err
	}
	defer sys.close()
	orc := newOracle(sys.r, sys.s, b.cfg.Filter, b.cell())
	drv := b.newDriver(sys, orc)
	if err := drv.warm(); err != nil {
		return err
	}
	b.rec.Clients = 1

	// Untraced sample, one caller: the baseline the tracing overhead is
	// read against, and the window the server's cache counters cover.
	var before statsBody
	if sys.ts != nil {
		if before, err = serverStats(sys); err != nil {
			return err
		}
	}
	var sample []time.Duration
	deadline := time.Now().Add(time.Duration(b.opt.seconds / 2 * float64(time.Second)))
	for len(sample) == 0 || (time.Now().Before(deadline) && (b.sz.maxOps == 0 || len(sample) < b.sz.maxOps)) {
		lat, err := drv.op(0)
		if err != nil {
			b.rec.fail("%v", err)
		}
		sample = append(sample, lat)
	}
	for _, err := range drv.verify() {
		b.rec.fail("%v", err)
	}
	var cacheHits, cacheMisses, cacheEvictions int64
	if sys.ts != nil {
		after, err := serverStats(sys)
		if err != nil {
			return err
		}
		cacheHits = after.Cache.Hits - before.Cache.Hits
		cacheMisses = after.Cache.Misses - before.Cache.Misses
		cacheEvictions = after.Cache.Evictions - before.Cache.Evictions
	}
	slices.Sort(sample)
	p50 := quantile(sample, 0.5)
	tailLat, tailNote := tail(w, sample)

	// The traced pass. One processor: shard.Join and shard.Query fan out
	// over GOMAXPROCS goroutines, and a replayed child must not be faster
	// than its parent merely because the parent's tiles ran in parallel.
	nOps := b.sz.traceOps[w]
	runtime.GOMAXPROCS(1)
	switch w {
	case wJoinIntersects:
		want := orc.join(0)
		for op := 1; op <= nOps; op++ {
			got, st := b.replayJoin(tr, &cnt, op, 0, sys, multistep.Intersects(), false)
			if err := checkJoin(got, st, want); err != nil {
				b.rec.fail("traced: %v", err)
			}
			cnt.falseHits += int64(want.falseHits)
		}
	case wJoinWithin:
		rng := rand.New(rand.NewSource(subSeed(b.opt.seed, 5)))
		for op := 1; op <= nOps; op++ {
			eps := withinEps(b.cell(), rng)
			rec := httptest.NewRecorder()
			handler := tr.do(op, 0, spHandler, func() {
				sys.h.ServeHTTP(rec, httptest.NewRequest("GET", sys.withinPath(eps), nil))
			})
			if err := orc.checkJoinBody(rec.Body.Bytes(), eps, withinLimit, true); err != nil {
				b.rec.fail("traced: %v", err)
			}
			cnt.encodeBytes += int64(rec.Body.Len())
			b.replayJoin(tr, &cnt, op, handler, sys, multistep.WithinDistance(eps), true)
			cnt.falseHits += int64(orc.join(eps).falseHits)
		}
	case wServeScan:
		// The recorder-driven handler runs on a second server over the
		// same catalog: on the first, the socket round trip has just
		// cached the request, and the replay must miss as the original did.
		srv2 := serve.NewServer(sys.cat)
		srv2.CacheBytes = b.sz.scanCacheBytes
		h2 := srv2.Handler()
		qs := newQueryStream(b.spec, subSeed(b.opt.seed, 6))
		var puts []cacheEntry
		for op := 1; op <= nOps; op++ {
			q := qs.next()
			var body []byte
			var err error
			round := tr.do(op, 0, spRoundTrip, func() { body, err = sys.get(q.path) })
			if err != nil {
				b.rec.fail("traced: %v", err)
				continue
			}
			rec := httptest.NewRecorder()
			handler := tr.do(op, round, spHandler, func() {
				h2.ServeHTTP(rec, httptest.NewRequest("GET", q.path, nil))
			})
			if bodyHash(rec.Body.Bytes()) != bodyHash(body) {
				b.rec.fail("traced %s: recorder and socket responses differ", q.path)
			}
			if op%sampleEvery == 0 {
				if err := orc.checkQueryBody(q, body); err != nil {
					b.rec.fail("traced: %v", err)
				}
			}
			cnt.encodeBytes += int64(len(body))
			b.replayQuery(tr, &cnt, op, handler, sys, q)
			puts = append(puts, cacheEntry{q.path, body})
		}
		replayCache(tr, &cnt, b.sz.scanCacheBytes, puts, nil)
	case wServeHot:
		hot := drv.(*serveHot)
		rng := rand.New(rand.NewSource(subSeed(b.opt.seed, 7)))
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(hot.pool)-1))
		var gets []int
		entries := make([]cacheEntry, len(hot.pool))
		for i, path := range hot.pool {
			entries[i].key = path
		}
		for op := 1; op <= nOps; op++ {
			i := int(zipf.Uint64())
			var body []byte
			var err error
			round := tr.do(op, 0, spRoundTrip, func() { body, err = sys.get(hot.pool[i]) })
			if err != nil {
				b.rec.fail("traced: %v", err)
				continue
			}
			rec := httptest.NewRecorder()
			tr.do(op, round, spHandler, func() {
				sys.h.ServeHTTP(rec, httptest.NewRequest("GET", hot.pool[i], nil))
			})
			if !isCached(body) || bodyHash(body) != hot.first[i] || bodyHash(rec.Body.Bytes()) != hot.first[i] {
				b.rec.fail("traced serve_hot: pool entry %d is not its cached first response", i)
			}
			cnt.encodeBytes += int64(len(body))
			entries[i].val = body
			gets = append(gets, i)
		}
		replayCache(tr, &cnt, serve.DefaultCacheBytes, entries, gets)
	}
	runtime.GOMAXPROCS(b.procs)

	b.rec.TracedOps = nOps
	b.rec.Attempted = int64(len(sample) + nOps)
	b.layerMetrics(tr, &cnt, nOps, storeBytes)
	if n := cacheHits + cacheMisses; n > 0 {
		b.rec.set("mqe.hit_ratio", float64(cacheHits)/float64(n), "ratio")
	}
	b.rec.set("mqe.evictions_per_op", float64(cacheEvictions)/float64(len(sample)), "count")
	b.rec.set("trace.overhead_ratio", float64(tr.opTime())/float64(nOps)/float64(p50), "ratio")
	b.rec.set("trace.untraced_p50_ms", ms(p50), "ms")
	// The tail of the untraced sample. It is listed with the per-layer
	// metrics because it does not repeat well enough on the reference
	// box to be a gate (README.md, "Noise").
	b.rec.set("latency_tail_ms", ms(tailLat), "ms")
	b.rec.Notes = append(b.rec.Notes, tailNote, fmt.Sprintf("untraced sample %d ops, traced pass %d ops, %d spans", len(sample), nOps, len(tr.spans)))
	// How much of each decomposed layer its replays account for: the
	// rest is the layer's self time, and a share above 100 % means the
	// replays ran slower than the call they repeat.
	ly := tr.layers()
	for _, name := range slices.Sorted(maps.Keys(ly)) {
		if lt := ly[name]; lt.self != lt.total {
			b.rec.Notes = append(b.rec.Notes, fmt.Sprintf("replays account for %.1f %% of %s", 100*float64(lt.total-lt.self)/float64(lt.total), name))
		}
	}
	return tr.write(b.opt.outDir, w)
}

// replayBuild builds both stores under a span and then repeats the
// build one layer down: the generator, and per tile the approximations,
// the TR*-trees, the R*-tree inserts, and the tile writer that contains
// all three.
func (b *bench) replayBuild(tr *tracer) error {
	for _, side := range []string{"R", "S"} {
		mc, err := b.spec.MapConfig(side)
		if err != nil {
			return err
		}
		build := tr.do(0, 0, spBuildStore, func() {
			_, err = loadgen.BuildStore(b.storeDir(side), b.spec.RelationName(side), mc, b.sz.tiles, b.cfg)
		})
		if err != nil {
			return err
		}
		tr.do(0, build, spStreamMap, func() {
			_, err = data.StreamMap(mc, func(int32, *geom.Polygon) error { return nil })
		})
		if err != nil {
			return err
		}
		sh, err := shard.Open(b.storeDir(side), b.cfg)
		if err != nil {
			return err
		}
		sw, err := shard.NewStoreWriter(filepath.Join(b.scratch, "replay-"+side), sh.Name, b.cfg)
		if err != nil {
			return err
		}
		opt := b.cfg.Filter.Kinds()
		opt.MECPrecision = b.cfg.MECPrecision
		for _, t := range sh.Tiles {
			polys := make([]*geom.Polygon, len(t.Rel.Objects))
			for i, o := range t.Rel.Objects {
				polys[i] = o.Poly
			}
			write := tr.do(0, build, spWriteTile, func() { err = sw.WriteTile(polys, t.Global) })
			if err != nil {
				return err
			}
			sets := make([]*approx.Set, len(polys))
			tr.do(0, write, spApprox, func() {
				for i, p := range polys {
					sets[i] = approx.Compute(p, opt)
				}
			})
			tr.do(0, write, spTRBuild, func() {
				for _, p := range polys {
					trstar.New(decomp.Trapezoidize(p), b.cfg.TRCapacity)
				}
			})
			tr.do(0, write, spRInsert, func() {
				tree := rstar.New(rstar.Config{
					PageSize:       b.cfg.PageSize,
					LeafEntryBytes: multistep.EntryBytes(b.cfg),
					BufferBytes:    b.cfg.BufferBytes,
					BufferPolicy:   b.cfg.BufferPolicy,
				})
				for i, s := range sets {
					tree.Insert(rstar.Item{Rect: s.MBR, ID: int32(i)})
				}
			})
		}
		if err := sw.Finish(); err != nil {
			return err
		}
	}
	return nil
}

// replayJoin runs one join and decomposes it: the real shard.Join, then
// per tile pair a multistep.Join, then under each of those the three
// steps through rstar, approx and the exact engine. planned joins run
// as the server runs them (planner on, its canonical result cap) and
// replay each sub-join under the plan it chose.
func (b *bench) replayJoin(tr *tracer, cnt *counts, op, parent int, sys *system, pred multistep.Predicate, planned bool) ([]multistep.Pair, shard.JoinStats) {
	ctx := context.Background()
	var ex multistep.Explain
	opts := []multistep.Option{multistep.WithPredicate(pred), multistep.WithExplain(&ex)}
	if planned {
		opts = append(opts, multistep.WithPlan(), multistep.WithLimit(sys.srv.MaxJoinPairs))
	}
	var (
		pairs []multistep.Pair
		st    shard.JoinStats
		err   error
	)
	top := tr.do(op, parent, spShardJoin, func() { pairs, st, err = shard.Join(ctx, sys.r, sys.s, opts...) })
	if err != nil {
		b.rec.fail("traced shard.Join: %v", err)
		return nil, st
	}
	cnt.candidates += st.CandidatePairs
	cnt.rectTests += st.MBRJoin.RectTests
	cnt.filterDecided += st.FilterHits + st.FilterFalseHits
	cnt.exactTested += st.ExactTested
	cnt.exactHits += st.ExactHits
	cnt.subJoins += int64(st.SubJoins)
	if planned && ex.CandidateError > 0 {
		cnt.qerrSum += ex.CandidateError
		cnt.qerrN++
	}

	eps := pred.Epsilon()
	for _, sub := range st.PerTile {
		rt, stl := sys.r.Tiles[sub.RTile].Rel, sys.s.Tiles[sub.STile].Rel
		sessR, sessS := rt.NewSession(), stl.NewSession()
		subOpts := append(slices.Clone(opts), multistep.WithSessions(sessR, sessS), multistep.WithLimit(-1),
			multistep.WithExplain(new(multistep.Explain)))
		ms := tr.do(op, top, spMSJoin, func() { _, _, err = multistep.Join(ctx, rt, stl, subOpts...) })
		if err != nil {
			b.rec.fail("traced multistep.Join: %v", err)
			continue
		}

		// The plan this sub-join ran under: the build configuration
		// unless the planner chose otherwise.
		engine, useFilter := plan.Engine(b.cfg.Engine), b.cfg.UseFilter
		if planned {
			var choice plan.Choice
			tr.do(op, ms, spChoose, func() { choice = plan.Choose(rt.Stats, stl.Stats, plan.DefaultWeights(), planRequest(rt, stl, pred)) })
			cnt.planCalls++
			if sub.Explain != nil {
				engine, useFilter = parseEngine(sub.Explain.Plan.Engine), sub.Explain.Plan.UseFilter
				// planRequest mirrors what multistep.Join asks the planner;
				// if the two part ways, the replay times a different plan.
				if choice.Engine != engine || choice.UseFilter != useFilter {
					b.rec.fail("replay drift: plan.Choose replayed %v/filter %v, the sub-join ran %v/filter %v", choice.Engine, choice.UseFilter, engine, useFilter)
				}
			}
		}

		type cand struct{ a, b int32 }
		var cands, rest []cand
		sessR, sessS = rt.NewSession(), stl.NewSession()
		tr.do(op, ms, spRJoin, func() {
			rstar.JoinParallelAccess(ctx, rt.Tree, stl.Tree, sessR, sessS, eps, 1, func(_ int, a, b rstar.Item) {
				cands = append(cands, cand{a.ID, b.ID})
			})
		})
		cnt.pageMisses += sessR.Misses() + sessS.Misses()
		cnt.pageHits += sessR.Hits() + sessS.Hits()
		if useFilter {
			tr.do(op, ms, spClassify, func() {
				for _, c := range cands {
					oa, ob := rt.Objects[c.a], stl.Objects[c.b]
					var cl approx.Class
					if eps > 0 {
						cl = b.cfg.Filter.ClassifyWithin(oa.Approx, ob.Approx, eps)
					} else {
						cl = b.cfg.Filter.Classify(oa.Approx, ob.Approx)
					}
					if cl != approx.Hit && cl != approx.FalseHit {
						rest = append(rest, c)
					}
				}
			})
		} else {
			rest = cands
		}
		tr.do(op, ms, spExact, func() {
			var oc ops.Counters
			for _, c := range rest {
				exactTest(engine, b.cfg, eps, rt.Objects[c.a], stl.Objects[c.b], &oc)
			}
		})
		// The replay must have done the work the real sub-join counted.
		if int64(len(cands)) != sub.Stats.CandidatePairs || int64(len(rest)) != sub.Stats.ExactTested {
			b.rec.fail("replay drift: tile pair %d,%d replayed %d candidates and %d exact tests, the sub-join counted %d and %d",
				sub.RTile, sub.STile, len(cands), len(rest), sub.Stats.CandidatePairs, sub.Stats.ExactTested)
		}
	}
	return pairs, st
}

// planRequest is the planning problem multistep.Join poses for one tile
// pair when every dimension is open.
func planRequest(r, s *multistep.Relation, pred multistep.Predicate) plan.Request {
	req := plan.Request{
		Pred:     plan.PredIntersects,
		Eps:      pred.Epsilon(),
		Engines:  []plan.Engine{plan.EngineTRStar, plan.EnginePlaneSweep, plan.EngineQuadratic},
		Filters:  []bool{true, false},
		MaxProcs: runtime.GOMAXPROCS(0),
		Collect:  true,
	}
	if pred.Epsilon() > 0 {
		req.Pred = plan.PredWithin
	}
	for w := 1; w <= 4*req.MaxProcs; w *= 2 {
		req.Workers = append(req.Workers, w)
	}
	rl, rd := r.Tree.PageBreakdown()
	sl, sd := s.Tree.PageBreakdown()
	req.PagesR, req.PagesS = rl+rd, sl+sd
	return req
}

func parseEngine(name string) plan.Engine {
	for _, e := range []plan.Engine{plan.EngineQuadratic, plan.EnginePlaneSweep} {
		if e.String() == name {
			return e
		}
	}
	return plan.EngineTRStar
}

// exactTest is step 3 for one pair under the given engine: the
// intersection test, or the distance test when eps > 0.
func exactTest(engine plan.Engine, cfg multistep.Config, eps float64, a, b *multistep.Object, c *ops.Counters) bool {
	switch {
	case engine == plan.EngineTRStar && eps > 0:
		return trstar.WithinDistance(a.Tree(cfg.TRCapacity), b.Tree(cfg.TRCapacity), eps, c)
	case engine == plan.EngineTRStar:
		return trstar.Intersects(a.Tree(cfg.TRCapacity), b.Tree(cfg.TRCapacity), c)
	case eps > 0:
		return exact.WithinDistance(a.Prepared(), b.Prepared(), eps, engine == plan.EnginePlaneSweep, c)
	case engine == plan.EnginePlaneSweep:
		return exact.PlaneSweepIntersects(a.Prepared(), b.Prepared(), cfg.PlaneSweepRestrict, c)
	default:
		return exact.QuadraticIntersects(a.Prepared(), b.Prepared(), c)
	}
}

// replayQuery decomposes one single-relation request below the handler:
// shard.Query, then per routed tile a session and a multistep.Query,
// then under each of those the R*-tree descent, the window filter and
// the exact tests.
func (b *bench) replayQuery(tr *tracer, cnt *counts, op, parent int, sys *system, q query) {
	ctx := context.Background()
	var ex multistep.Explain
	var opts []multistep.Option
	pred := multistep.Intersects()
	if q.eps > 0 {
		pred = multistep.WithinDistance(q.eps)
	}
	switch q.class {
	case "window":
		opts = append(opts, multistep.ForWindow(q.win))
	case "point":
		opts = append(opts, multistep.ForPoint(q.pt))
	default:
		opts = append(opts, multistep.ForNearest(q.pt, q.k))
	}
	if q.class != "nearest" {
		opts = append(opts, multistep.WithPredicate(pred), multistep.WithExplain(&ex), multistep.WithPlan())
	}
	var res shard.QueryResult
	var err error
	top := tr.do(op, parent, spShardQuery, func() { res, err = shard.Query(ctx, sys.r, opts...) })
	if err != nil {
		b.rec.fail("traced shard.Query: %v", err)
		return
	}
	cnt.tiles += int64(len(res.Stats.Tiles))
	cnt.pageTouches += res.Stats.PageTouches

	target := q.win
	if q.class != "window" {
		target = geom.Rect{MinX: q.pt.X, MinY: q.pt.Y, MaxX: q.pt.X, MaxY: q.pt.Y}
	}
	for _, ts := range res.Stats.Tiles {
		rel := sys.r.Tiles[ts.Tile].Rel
		var sess *storage.Session
		tr.do(op, top, spSession, func() { sess = rel.NewSession() })
		subOpts := append(slices.Clone(opts), multistep.WithSession(sess), multistep.WithLimit(-1))
		if q.class != "nearest" {
			subOpts = append(subOpts, multistep.WithExplain(new(multistep.Explain)))
		}
		ms := tr.do(op, top, spMSQuery, func() { _, err = multistep.Query(ctx, rel, subOpts...) })
		if err != nil {
			b.rec.fail("traced multistep.Query: %v", err)
			continue
		}

		sess = rel.NewSession()
		if q.class == "nearest" {
			var items []rstar.Item
			tr.do(op, ms, spRNearest, func() {
				// As many MBR-nearest candidates as the real sub-query fetched.
				items = rel.Tree.NearestNeighborsAccess(sess, q.pt, int(ts.Stats.Candidates))
			})
			tr.do(op, ms, spExactWin, func() {
				for _, it := range items {
					rel.Objects[it.ID].Poly.DistToPoint(q.pt)
				}
			})
			continue
		}
		var cands, rest []int32
		tr.do(op, ms, spRWindow, func() {
			rel.Tree.WindowQueryAccess(sess, target.Expand(q.eps), func(it rstar.Item) { cands = append(cands, it.ID) })
		})
		useFilter := b.cfg.UseFilter && q.eps == 0
		if ts.Explain != nil {
			useFilter = useFilter && ts.Explain.Plan.UseFilter
		}
		if useFilter {
			tr.do(op, ms, spClassifyWin, func() {
				for _, id := range cands {
					if cl := b.cfg.Filter.ClassifyWindow(rel.Objects[id].Approx, target); cl != approx.Hit && cl != approx.FalseHit {
						rest = append(rest, id)
					}
				}
			})
		} else {
			rest = cands
		}
		tr.do(op, ms, spExactWin, func() {
			var oc ops.Counters
			for _, id := range rest {
				if q.eps > 0 {
					_ = rel.Objects[id].Poly.DistToRect(target) <= q.eps
				} else {
					exact.IntersectsRectExact(rel.Objects[id].Prepared(), target, &oc)
				}
			}
		})
		if int64(len(cands)) != ts.Stats.Candidates || int64(len(rest)) != ts.Stats.ExactTested {
			b.rec.fail("replay drift: %s on tile %d replayed %d candidates and %d exact tests, the sub-query counted %d and %d",
				q.name, ts.Tile, len(cands), len(rest), ts.Stats.Candidates, ts.Stats.ExactTested)
		}
	}
}

// cacheEntry is one key and value of the result-cache replay.
type cacheEntry struct {
	key string
	val []byte
}

// cacheBatch is how many cache calls one span times: a single Put or
// Get is too short for a clock read on either side of it.
const cacheBatch = 128

// replayCache times mqe.Cache on a cache of the server's budget with
// the traced requests as keys and their bodies as values: Put for every
// entry (evicting once the budget is exceeded), then, for the hit path,
// Get in the traced draw order. An entry is charged its body's length;
// the server adds a private per-entry overhead, which changes how many
// entries fit but not that a full cache evicts about once per Put.
func replayCache(tr *tracer, cnt *counts, budget int64, entries []cacheEntry, gets []int) {
	c := mqe.NewCache(budget)
	for lo := 0; lo < len(entries); lo += cacheBatch {
		batch := entries[lo:min(lo+cacheBatch, len(entries))]
		tr.do(0, 0, spCachePut, func() {
			for _, e := range batch {
				c.Put(e.key, e.val, int64(len(e.val)))
			}
		})
		if gets == nil {
			cnt.cacheCalls += int64(len(batch))
		}
	}
	for lo := 0; lo < len(gets); lo += cacheBatch {
		batch := gets[lo:min(lo+cacheBatch, len(gets))]
		tr.do(0, 0, spCacheGet, func() {
			for _, i := range batch {
				c.Get(entries[i].key)
			}
		})
		cnt.cacheCalls += int64(len(batch))
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerMetrics turns the spans and counters into the per-layer metrics
// of BENCHMARK.json. Every workload reports every metric; a layer that
// did no work in the workload reports 0.
func (b *bench) layerMetrics(tr *tracer, cnt *counts, nOps int, storeBytes int64) {
	ly := tr.layers()
	get := func(name string) layerTime {
		if lt := ly[name]; lt != nil {
			return *lt
		}
		return layerTime{}
	}
	n := float64(nOps)
	objs := float64(2 * b.spec.Objects)
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	per := func(d time.Duration, calls int, unit func(time.Duration) float64) float64 {
		if calls == 0 {
			return 0
		}
		return unit(d) / float64(calls)
	}
	set := b.rec.set

	// Build path.
	set("loadgen.build_store_s", get(spBuildStore).total.Seconds(), "s")
	set("data.stream_map_us_per_obj", us(get(spStreamMap).total)/objs, "us")
	set("approx.compute_us_per_obj", us(get(spApprox).total)/objs, "us")
	set("trstar.build_us_per_obj", us(get(spTRBuild).total)/objs, "us")
	set("rstar.insert_us_per_obj", us(get(spRInsert).total)/objs, "us")
	set("shard.write_tile_ms_per_tile", per(get(spWriteTile).self, get(spWriteTile).calls, ms), "ms")
	set("shard.open_ms", ms(get(spOpen).total), "ms")
	set("shard.store_bytes_per_obj", float64(storeBytes)/objs, "B")

	// Join path.
	set("rstar.join_ms_per_op", ms(get(spRJoin).total)/n, "ms")
	set("rstar.candidates_per_op", float64(cnt.candidates)/n, "count")
	set("rstar.rect_tests_per_candidate", ratio(cnt.rectTests, cnt.candidates), "ratio")
	set("storage.page_accesses_per_op", float64(cnt.pageMisses)/n, "count")
	set("storage.page_hit_ratio", ratio(cnt.pageHits, cnt.pageHits+cnt.pageMisses), "ratio")
	set("approx.filter_ms_per_op", ms(get(spClassify).total)/n, "ms")
	set("approx.identified_ratio", ratio(cnt.filterDecided, cnt.candidates), "ratio")
	set("approx.false_hits_per_op", float64(cnt.falseHits)/n, "count")
	set("trstar.exact_ms_per_op", ms(get(spExact).total)/n, "ms")
	set("exact.tests_per_op", float64(cnt.exactTested)/n, "count")
	set("exact.hit_ratio", ratio(cnt.exactHits, cnt.exactTested), "ratio")
	set("multistep.join_self_ms_per_op", ms(get(spMSJoin).self)/n, "ms")
	set("shard.join_self_ms_per_op", ms(get(spShardJoin).self)/n, "ms")
	set("shard.subjoins_per_op", float64(cnt.subJoins)/n, "count")
	set("plan.choose_us_per_call", per(get(spChoose).total, int(cnt.planCalls), us), "us")
	qerr := 0.0
	if cnt.qerrN > 0 {
		qerr = cnt.qerrSum / float64(cnt.qerrN)
	}
	set("plan.cand_qerror", qerr, "ratio")
	joinSelf := 0.0
	if get(spShardJoin).calls > 0 {
		joinSelf = ms(get(spHandler).self) / n
	}
	set("serve.join_self_ms_per_op", joinSelf, "ms")

	// Query and hit paths.
	querySelf, hitPath := 0.0, 0.0
	switch b.opt.workload {
	case wServeScan:
		querySelf = us(get(spHandler).self) / n
	case wServeHot:
		hitPath = us(get(spHandler).total) / n
	}
	set("http.transport_us_per_op", us(get(spRoundTrip).self)/n, "us")
	set("serve.handler_self_us_per_op", querySelf, "us")
	set("serve.hit_path_us_per_op", hitPath, "us")
	set("serve.encode_bytes_per_op", float64(cnt.encodeBytes)/n, "B")
	set("shard.query_self_us_per_op", us(get(spShardQuery).self)/n, "us")
	set("shard.tiles_per_query", float64(cnt.tiles)/n, "count")
	set("multistep.query_self_us_per_op", us(get(spMSQuery).self)/n, "us")
	set("storage.session_new_us", per(get(spSession).total, get(spSession).calls, us), "us")
	set("storage.pages_per_query", float64(cnt.pageTouches)/n, "count")
	set("rstar.window_us_per_op", us(get(spRWindow).total)/n, "us")
	set("rstar.nearest_us_per_op", us(get(spRNearest).total)/n, "us")
	set("approx.window_filter_us_per_op", us(get(spClassifyWin).total)/n, "us")
	set("exact.window_us_per_op", us(get(spExactWin).total)/n, "us")
	put, gets := get(spCachePut), get(spCacheGet)
	putNs, getNs := 0.0, 0.0
	if gets.calls > 0 {
		getNs = float64(gets.total) / float64(cnt.cacheCalls)
	} else if put.calls > 0 {
		putNs = float64(put.total) / float64(cnt.cacheCalls)
	}
	set("mqe.cache_put_ns", putNs, "ns")
	set("mqe.cache_get_ns", getNs, "ns")
	set("mqe.hit_ratio", 0, "ratio")
	set("trace.op_ms", ms(tr.opTime())/n, "ms")
}
