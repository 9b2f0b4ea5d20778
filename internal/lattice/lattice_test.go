// Package lattice is the equivalence lattice of the spatial join: one
// differential harness over predicate × engine × filter × tiles ×
// workers × delivery × plan × store × limit, and the serving layer's
// cache, on one set of small deterministic datasets. Every cell is held
// to the brute-force oracle of oracle_test.go and to the cells it must
// equal (DESIGN.md §7, "Equivalence lattice"). It has test files only.
package lattice

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"spatialjoin"
	"spatialjoin/internal/approx"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/rstar"
	"spatialjoin/internal/shard"
)

// The dimensions of the lattice. Index 0 of every execution dimension
// (driver onwards) is the reference execution: solo, one worker,
// collected, unplanned, as built, no limit. Adding a dimension is a
// slice here, a field of cell (and its entry in dims) and a case in
// exec.
var (
	predicates = []struct {
		name   string
		pred   multistep.Predicate
		holds  func(a, b *geom.Polygon) bool // the oracle's exact test
		nested bool                          // step 1 keeps nested MBRs only
	}{
		{"intersects", multistep.Intersects(), intersects, false},
		{"contains", multistep.Contains(), contains, true},
		{"within(0.01)", multistep.WithinDistance(0.01), within(0.01), false},
		{"within(0.1)", multistep.WithinDistance(0.1), within(0.1), false},
	}
	engines = []multistep.Engine{multistep.EngineQuadratic, multistep.EnginePlaneSweep, multistep.EngineTRStar}
	filters = []string{"off", "recommended", "recommended+false-area", "RMBR+MEC"}
	// drivers: the solo multistep.Join (tiles [0 0] in cell names), then
	// the facade at (R, S) tiles.
	drivers    = [][2]int{{0, 0}, {1, 1}, {2, 2}, {4, 4}, {7, 3}}
	workers    = []int{1, 3, 0}
	deliveries = []string{"collect", "stream", "bufferless"}
	plans      = []bool{false, true}
	stores     = []bool{false, true} // as built, or saved and reopened
	limits     = []int{-1, 0, 7, allButOne, oneMore}
)

// The limits one short of the answer and one past it.
const allButOne, oneMore = -2, -3

// cell is one point of the lattice: an index into each dimension.
type cell struct{ ds, pred, engine, filter, driver, workers, delivery, plan, store, limit int }

// dims returns the cell's coordinates and the sizes of their dimensions.
func (c *cell) dims() ([]*int, []int) {
	return []*int{&c.ds, &c.pred, &c.engine, &c.filter, &c.driver, &c.workers, &c.delivery, &c.plan, &c.store, &c.limit},
		[]int{len(theDatasets), len(predicates), len(engines), len(filters), len(drivers), len(workers), len(deliveries), len(plans), len(stores), len(limits)}
}

func (c cell) String() string {
	limit := map[int]string{allButOne: "len-1", oneMore: "len+1"}[limits[c.limit]]
	if limit == "" {
		limit = fmt.Sprint(limits[c.limit])
	}
	return fmt.Sprintf("%s/%s/%v/filter %s/tiles %v/workers %d/%s/planned %t/reopened %t/limit %s",
		theDatasets[c.ds].name, predicates[c.pred].name, engines[c.engine], filters[c.filter], drivers[c.driver],
		workers[c.workers], deliveries[c.delivery], plans[c.plan], stores[c.store], limit)
}

// reference is the cell's answer cell, or its reference execution on
// the cell's tiles.
func (c cell) reference(tiles bool) cell {
	r := cell{ds: c.ds, pred: c.pred, engine: c.engine, filter: c.filter}
	if tiles {
		r.driver = c.driver
	}
	return r
}

// buildConfig is the configuration the relations of a filter value are
// built under, on a small page buffer so page accounting is non-trivial.
func buildConfig(filter int) multistep.Config {
	cfg := multistep.DefaultConfig()
	cfg.BufferBytes = 8192
	switch filters[filter] {
	case "off":
		cfg.UseFilter = false
	case "recommended+false-area":
		cfg.Filter.UseFalseArea = true
	case "RMBR+MEC":
		cfg.Filter.Conservative, cfg.Filter.Progressive, cfg.MECPrecision = approx.RMBR, approx.MEC, 5e-3
	}
	return cfg
}

var theDatasets = datasets()

// harness memoizes oracle answers, relations and executed cells. The
// sequential tests fill it; the concurrent replay only reads it.
type harness struct {
	dir     string
	answers map[[2]int][]multistep.Pair
	rels    map[relKey]*shard.Sharded
	runs    map[cell]outcome
}

// relKey names one side (0 is R, 1 is S) of a dataset at a tile count.
type relKey struct {
	ds, filter, side, tiles int
	reopened                bool
}

var h = &harness{answers: map[[2]int][]multistep.Pair{}, rels: map[relKey]*shard.Sharded{}, runs: map[cell]outcome{}}

func TestMain(m *testing.M) {
	var err error
	if h.dir, err = os.MkdirTemp("", "lattice"); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(h.dir)
	os.Exit(code)
}

// answer is the oracle's response set of a dataset under a predicate.
func (h *harness) answer(ds, pred int) []multistep.Pair {
	k := [2]int{ds, pred}
	if _, ok := h.answers[k]; !ok {
		h.answers[k] = nestedLoops(theDatasets[ds].r, theDatasets[ds].s, predicates[pred].holds)
	}
	return h.answers[k]
}

// rel builds (once) one side of a dataset, saved and reopened if asked:
// the facade's relation of that many tiles, or at 0 tiles one solo
// relation in a tile of its own (shard.FromRelation), so its tile's IDs
// are the dataset's. A self-join's sides are one relation.
func (h *harness) rel(t testing.TB, k relKey) *shard.Sharded {
	d := theDatasets[k.ds]
	if d.self {
		k.side = 0
	}
	if rel, ok := h.rels[k]; ok {
		return rel
	}
	polys, name, cfg := d.r, "R", buildConfig(k.filter)
	if k.side == 1 {
		polys, name = d.s, "S"
	}
	rel := shard.FromRelation(multistep.NewRelation(name, polys, cfg))
	if k.tiles > 0 {
		rel = spatialjoin.NewRelation(name, polys, k.tiles, cfg)
		if rel.Shards() != max(1, min(k.tiles, len(polys))) || rel.Objects() != len(polys) {
			t.Fatalf("%d objects in %d tiles: %d tiles, %d objects", len(polys), k.tiles, rel.Shards(), rel.Objects())
		}
	}
	if k.reopened {
		dir := filepath.Join(h.dir, fmt.Sprintf("%d-%d-%s-%d", k.ds, k.filter, name, k.tiles))
		err := spatialjoin.SaveRelation(dir, rel)
		if err == nil {
			rel, err = spatialjoin.OpenRelation(dir, cfg)
		}
		if err != nil || rel.Name != name {
			t.Fatalf("reopening %s: %v", dir, err)
		}
	}
	h.rels[k] = rel
	return rel
}

// pair returns a cell's relations.
func (h *harness) pair(t testing.TB, c cell) (r, s *shard.Sharded) {
	tiles := drivers[c.driver]
	return h.rel(t, relKey{c.ds, c.filter, 0, tiles[0], stores[c.store]}), h.rel(t, relKey{c.ds, c.filter, 1, tiles[1], stores[c.store]})
}

// outcome is what one execution of a cell returned.
type outcome struct {
	pairs, streamed []multistep.Pair // streamed: sorted
	stats           multistep.Stats  // the solo run's, or the facade's sums
	tiled           shard.JoinStats  // facade only
	plan            multistep.Plan   // solo only
}

// limit resolves the cell's limit against the oracle's answer.
func (h *harness) limit(c cell) int {
	switch l := limits[c.limit]; l {
	case allButOne:
		return len(h.answer(c.ds, c.pred)) - 1
	case oneMore:
		return len(h.answer(c.ds, c.pred)) + 1
	default:
		return l
	}
}

// exec runs one cell; extra options apply last. Every solo run gets
// fresh page-access sessions, as every facade sub-join does, so no cell's
// statistics depend on the cells run before it.
func (h *harness) exec(t testing.TB, c cell, extra ...multistep.Option) (outcome, error) {
	cfg := buildConfig(c.filter)
	cfg.Engine = engines[c.engine]
	opts := []multistep.Option{multistep.WithPredicate(predicates[c.pred].pred), multistep.WithWorkers(workers[c.workers]),
		multistep.WithConfig(cfg), multistep.WithLimit(h.limit(c))}
	if plans[c.plan] {
		opts[2] = multistep.WithPlan()
	}
	var o outcome
	var mu sync.Mutex
	switch deliveries[c.delivery] {
	case "stream":
		opts = append(opts, multistep.WithStream(func(p multistep.Pair) {
			mu.Lock()
			defer mu.Unlock()
			o.streamed = append(o.streamed, p)
		}))
	case "bufferless":
		opts = append(opts, multistep.WithBufferless())
	}
	var err error
	if r, s := h.pair(t, c); c.driver == 0 {
		r, s := r.Tiles[0].Rel, s.Tiles[0].Rel
		var ex multistep.Explain
		opts = append(opts, multistep.WithSessions(r.NewSession(), s.NewSession()), multistep.WithExplain(&ex))
		o.pairs, o.stats, err = multistep.Join(context.Background(), r, s, append(opts, extra...)...)
		o.plan = ex.Plan
	} else {
		o.pairs, o.tiled, err = spatialjoin.Join(context.Background(), r, s, append(opts, extra...)...)
		o.stats = o.tiled.Stats
	}
	slices.SortFunc(o.streamed, multistep.ComparePairs)
	return o, err
}

// run is exec memoized; it fails the test on an error.
func (h *harness) run(t testing.TB, c cell) outcome {
	if o, ok := h.runs[c]; ok {
		return o
	}
	o, err := h.exec(t, c)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	h.runs[c] = o
	return o
}

// sumPerTile adds up per-tile-pair statistics, every counter of them.
func sumPerTile(per []shard.SubJoinStats) multistep.Stats {
	var sum multistep.Stats
	var add func(dst, src reflect.Value)
	add = func(dst, src reflect.Value) {
		switch dst.Kind() {
		case reflect.Int64:
			dst.SetInt(dst.Int() + src.Int())
		case reflect.Struct:
			for i := range dst.NumField() {
				add(dst.Field(i), src.Field(i))
			}
		}
	}
	for _, p := range per {
		add(reflect.ValueOf(&sum).Elem(), reflect.ValueOf(p.Stats))
	}
	return sum
}

// TestAnswersMatchOracle runs the answer product, dataset × predicate ×
// engine × filter on the reference execution, and holds each cell to the
// oracle: the response set, the step 1 candidates (the MBR pairs nested
// loops count) and the bookkeeping of steps 2 and 3. -short keeps the
// filters off and recommended.
func TestAnswersMatchOracle(t *testing.T) {
	var hits, falseHits, pages int64
	decided := make([]int64, len(predicates))
	for ds, d := range theDatasets {
		for pred, p := range predicates {
			want := h.answer(ds, pred)
			if len(want) == 0 && len(d.r) > 0 && !p.nested {
				t.Errorf("%s/%s: the oracle answers nothing; the dataset is vacuous", d.name, p.name)
			}
			cands := mbrCandidates(d.r, d.s, p.pred.Epsilon(), p.nested)
			for engine := range engines {
				for filter := range filters {
					if testing.Short() && filter > 1 {
						continue
					}
					c := cell{ds: ds, pred: pred, engine: engine, filter: filter}
					o := h.run(t, c)
					st := o.stats
					d := st.FilterHits + st.FilterFalseHits
					switch {
					case !slices.Equal(o.pairs, want):
						t.Errorf("%v: %d pairs, the oracle %d", c, len(o.pairs), len(want))
					case st.ResultPairs != int64(len(want)) || st.CandidatePairs != cands:
						t.Errorf("%v: %d results and %d candidates, want %d and %d", c, st.ResultPairs, st.CandidatePairs, len(want), cands)
					case filter == 0 && d != 0 || d+st.ExactTested != st.CandidatePairs ||
						st.FilterHits+st.ExactHits != st.ResultPairs:
						t.Errorf("%v: steps 2 and 3 do not account for the candidates: %+v", c, st)
					}
					hits, falseHits, pages = hits+st.FilterHits, falseHits+st.FilterFalseHits, pages+st.PageAccessesR+st.PageAccessesS
					decided[pred] += d
				}
			}
		}
	}
	if hits == 0 || falseHits == 0 || pages == 0 || slices.Contains(decided, 0) {
		t.Errorf("vacuous lattice: %d filter hits, %d false hits, %d page accesses; decided per predicate %v",
			hits, falseHits, pages, decided)
	}
}

// executionCells covers all dimensions pairwise: every pair of values of
// any two dimensions is in some cell. Each cell starts from the first
// uncovered pair and keeps, of 20 random completions from a fixed seed,
// the one that covers the most new pairs. A full run adds the covers of
// two more seeds.
func executionCells() []cell {
	type pair struct{ d1, v1, d2, v2 int }
	seeds := []int64{42, 43, 44}
	if testing.Short() {
		seeds = seeds[:1]
	}
	var cells []cell
	for _, seed := range seeds {
		var order []pair
		covered := map[pair]bool{}
		_, sizes := (&cell{}).dims()
		for d1 := range sizes {
			for d2 := d1 + 1; d2 < len(sizes); d2++ {
				for v := range sizes[d1] * sizes[d2] {
					order = append(order, pair{d1, v / sizes[d2], d2, v % sizes[d2]})
				}
			}
		}
		// pairsOf counts the uncovered pairs of c, marking them if cover.
		pairsOf := func(c cell, cover bool) (n int) {
			x, _ := c.dims()
			for d1 := range x {
				for d2 := d1 + 1; d2 < len(x); d2++ {
					p := pair{d1, *x[d1], d2, *x[d2]}
					if !covered[p] {
						n++
					}
					covered[p] = covered[p] || cover
				}
			}
			return n
		}
		rng := rand.New(rand.NewSource(seed))
		for _, first := range order {
			if covered[first] {
				continue
			}
			var best cell
			for try := range 20 {
				var c cell
				x, _ := c.dims()
				for d := range x {
					*x[d] = rng.Intn(sizes[d])
				}
				*x[first.d1], *x[first.d2] = first.v1, first.v2
				if try == 0 || pairsOf(c, false) > pairsOf(best, false) {
					best = c
				}
			}
			pairsOf(best, true)
			cells = append(cells, best)
		}
	}
	return cells
}

// check holds one execution of a cell to invariants 1–5 of DESIGN.md §7.
func (h *harness) check(t *testing.T, c cell, o outcome) {
	t.Helper()
	want, solo := h.answer(c.ds, c.pred), c.driver == 0
	switch deliveries[c.delivery] {
	case "collect":
		prefix := want
		if l := h.limit(c); l >= 0 && l < len(want) {
			prefix = want[:l]
		}
		if !slices.Equal(o.pairs, prefix) || !solo && cap(o.pairs) != len(o.pairs) {
			t.Errorf("%v: %d pairs (cap %d), not the sorted prefix of %d", c, len(o.pairs), cap(o.pairs), len(prefix))
		}
	case "stream":
		if o.pairs != nil || !slices.Equal(o.streamed, want) {
			t.Errorf("%v: returned %d pairs; streamed %d, not the answer's %d", c, len(o.pairs), len(o.streamed), len(want))
		}
	case "bufferless":
		if o.pairs != nil {
			t.Errorf("%v: returned %d pairs", c, len(o.pairs))
		}
	}
	ref := h.run(t, c.reference(false))
	if solo {
		if plans[c.plan] {
			// The unplanned execution of the engine and filter named.
			engine, err := multistep.ParseEngine(o.plan.Engine)
			if err != nil || !o.plan.Planned {
				t.Fatalf("%v: plan %+v: %v", c, o.plan, err)
			}
			cfg := buildConfig(c.filter)
			cfg.Engine, cfg.UseFilter = engine, o.plan.UseFilter
			u := c
			u.plan = 0
			if ref, err = h.exec(t, u, multistep.WithConfig(cfg)); err != nil {
				t.Fatal(err)
			}
		}
		if o.stats != ref.stats {
			t.Errorf("%v: statistics\n%+v\nwant\n%+v", c, o.stats, ref.stats)
		}
		return
	}
	if sum := sumPerTile(o.tiled.PerTile); sum != o.stats || len(o.tiled.PerTile) != o.tiled.SubJoins {
		t.Errorf("%v: %d per-tile entries for %d sub-joins sum to\n%+v\nnot\n%+v", c, len(o.tiled.PerTile), o.tiled.SubJoins, sum, o.stats)
	}
	if o.stats.CandidatePairs != ref.stats.CandidatePairs || o.stats.ResultPairs != ref.stats.ResultPairs {
		t.Errorf("%v: %d candidates and %d results, the solo cell %d and %d", c,
			o.stats.CandidatePairs, o.stats.ResultPairs, ref.stats.CandidatePairs, ref.stats.ResultPairs)
	}
	if plans[c.plan] {
		// Each tile pair plans on its own; EXPLAIN plans the same sub-joins.
		r, s := h.pair(t, c)
		ex, err := spatialjoin.ExplainJoin(context.Background(), r, s, false,
			multistep.WithPredicate(predicates[c.pred].pred), multistep.WithPlan())
		if err != nil || ex.SubJoins != o.tiled.SubJoins || len(ex.PerTile) != ex.SubJoins || ex.Explain.Executed {
			t.Errorf("%v: EXPLAIN has %d sub-joins, %d plans, executed %t, err %v; the join ran %d",
				c, ex.SubJoins, len(ex.PerTile), ex.Explain.Executed, err, o.tiled.SubJoins)
		}
		return
	}
	// The tiling changes only the step 1 traversal, the page accesses and
	// the object fetches; the reference run on the same tiles changes
	// nothing.
	got, solost := o.stats, ref.stats
	for _, st := range []*multistep.Stats{&got, &solost} {
		st.MBRJoin, st.PageAccessesR, st.PageAccessesS, st.ObjectFetches = rstar.JoinStats{}, 0, 0, 0
	}
	if got != solost {
		t.Errorf("%v: statistics\n%+v\nthe solo cell's\n%+v", c, got, solost)
	}
	if tref := h.run(t, c.reference(true)); !reflect.DeepEqual(o.tiled, tref.tiled) {
		t.Errorf("%v: statistics\n%+v\nwant those of %v\n%+v", c, o.tiled, c.reference(true), tref.tiled)
	}
}

// TestExecutionLattice runs the pairwise cover and checks each cell.
func TestExecutionLattice(t *testing.T) {
	cells := executionCells()
	t.Logf("%d execution cells", len(cells))
	for _, c := range cells {
		h.check(t, c, h.run(t, c))
	}
}
