package multistep

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/ops"
	"spatialjoin/internal/rstar"
)

// The workload of the pre-refactor golden statistics: identical to
// smallSeries, frozen here because the goldens below were captured on it.
func goldenSeries() ([]*geom.Polygon, []*geom.Polygon) {
	r := data.GenerateMap(data.MapConfig{Cells: 80, TargetVerts: 48, HoleFraction: 0.1, Seed: 211})
	s := data.StrategyA(r, 0.45)
	return r, s
}

// TestSequentialStatsMatchPreRefactorGoldens pins the shared-context
// (sequential) accounting to the exact Stats the pre-refactor code
// produced: the values below were captured by running Join, WindowQuery
// and PointQuery on commit 96aa1d9 (before the access-context refactor)
// on this exact workload, and re-pinned once, unchanged in kind, when
// GenerateMap became a collect over StreamMap and the map itself moved.
// Any drift in candidate generation, filtering, exact-step work, or
// buffer hit/miss accounting fails here.
func TestSequentialStatsMatchPreRefactorGoldens(t *testing.T) {
	rp, sp := goldenSeries()

	wantByEngine := map[Engine]Stats{
		EngineQuadratic: {
			CandidatePairs: 499,
			MBRJoin:        rstar.JoinStats{Pairs: 499, RectTests: 1683, LeafTests: 1668},
			FilterHits:     127, FilterFalseHits: 98,
			ExactTested: 274, ExactHits: 226, ObjectFetches: 159,
			Ops:         ops.Counters{EdgeIntersection: 624291},
			ResultPairs: 353,
		},
		EnginePlaneSweep: {
			CandidatePairs: 499,
			MBRJoin:        rstar.JoinStats{Pairs: 499, RectTests: 1683, LeafTests: 1668},
			FilterHits:     127, FilterFalseHits: 98,
			ExactTested: 274, ExactHits: 226, ObjectFetches: 159,
			Ops:         ops.Counters{EdgeIntersection: 2643, Position: 10861, EdgeRect: 38248},
			ResultPairs: 353,
		},
		EngineTRStar: {
			CandidatePairs: 499,
			MBRJoin:        rstar.JoinStats{Pairs: 499, RectTests: 1683, LeafTests: 1668},
			FilterHits:     127, FilterFalseHits: 98,
			ExactTested: 274, ExactHits: 226, ObjectFetches: 159,
			Ops:         ops.Counters{RectIntersection: 7031, TrapIntersection: 368},
			ResultPairs: 353,
		},
	}
	for engine, want := range wantByEngine {
		cfg := DefaultConfig()
		cfg.Engine = engine
		r := NewRelation("R", rp, cfg)
		s := NewRelation("S", sp, cfg)
		_, st := testJoin(t, r, s, cfg)
		if !reflect.DeepEqual(st, want) {
			t.Errorf("%v: stats drifted from the pre-refactor goldens:\n got %+v\nwant %+v", engine, st, want)
		}
	}

	// A one-frame buffer exercises the replacement path: the page-access
	// counts and the raw buffer counters are pinned too.
	cfg := DefaultConfig()
	cfg.BufferBytes = 4096
	r := NewRelation("R", rp, cfg)
	s := NewRelation("S", sp, cfg)
	_, st := testJoin(t, r, s, cfg)
	if st.PageAccessesR != 6 || st.PageAccessesS != 9 {
		t.Errorf("small-buffer page accesses R/S = %d/%d, pre-refactor golden 6/9",
			st.PageAccessesR, st.PageAccessesS)
	}
	if h, m := r.Tree.Buffer().Hits(), r.Tree.Buffer().Misses(); h != 4 || m != 6 {
		t.Errorf("R buffer hits/misses = %d/%d, golden 4/6", h, m)
	}
	if h, m := s.Tree.Buffer().Hits(), s.Tree.Buffer().Misses(); h != 1 || m != 9 {
		t.Errorf("S buffer hits/misses = %d/%d, golden 1/9", h, m)
	}

	w := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.45, MaxY: 0.4}
	ids, wst := testWindow(t, r, w, cfg)
	wantW := WindowStats{Candidates: 11, FilterHits: 7, FilterFalseHits: 0, ExactTested: 4, ResultObjects: 11, PageAccesses: 3}
	if len(ids) != 11 || wst != wantW {
		t.Errorf("window query drifted: %d ids, %+v (golden 11 ids, %+v)", len(ids), wst, wantW)
	}
	pids, pst := testPoint(t, r, geom.Point{X: 0.31, Y: 0.47}, cfg)
	wantP := WindowStats{Candidates: 2, FilterHits: 1, FilterFalseHits: 1, ExactTested: 0, ResultObjects: 1, PageAccesses: 3}
	if len(pids) != 1 || pids[0] != 47 || pst != wantP {
		t.Errorf("point query drifted: ids %v, %+v (golden [47], %+v)", pids, pst, wantP)
	}
}

// TestSessionStatsMatchSharedMode proves that a per-query session
// reports exactly the statistics the shared sequential path reports from
// the same starting buffer state — for joins across all three exact
// engines and for window queries.
func TestSessionStatsMatchSharedMode(t *testing.T) {
	rp, sp := goldenSeries()
	for _, engine := range []Engine{EngineQuadratic, EnginePlaneSweep, EngineTRStar} {
		cfg := DefaultConfig()
		cfg.Engine = engine
		cfg.BufferBytes = 8192 // 2 frames: make the accounting non-trivial
		r := NewRelation("R", rp, cfg)
		s := NewRelation("S", sp, cfg)

		// One shared join fixes the buffer state at X.
		sharedPairs, _ := testJoin(t, r, s, cfg)

		// A session join from state X...
		var sessPairs []Pair
		sessSt := testJoinStream(t, r, s, cfg, func(p Pair) { sessPairs = append(sessPairs, p) },
			WithWorkers(2), WithSessions(r.NewSession(), s.NewSession()))

		// ...must equal a shared join from state X (sessions left the
		// shared buffers untouched, so this second shared run also
		// starts from X).
		wantPairs, wantSt := testJoin(t, r, s, cfg)
		if !reflect.DeepEqual(sessSt, wantSt) {
			t.Errorf("%v: session stats differ from shared mode:\n got %+v\nwant %+v", engine, sessSt, wantSt)
		}
		sortPairs(sessPairs)
		assertSameResponse(t, engine.String()+" session join", sessPairs, wantPairs)
		_ = sharedPairs

		// Window queries: session vs shared from the same state.
		w := geom.Rect{MinX: 0.1, MinY: 0.3, MaxX: 0.6, MaxY: 0.55}
		sessIDs, sessW := testWindowAccess(t, r, r.NewSession(), w, cfg)
		wantIDs, wantW := testWindow(t, r, w, cfg)
		if !reflect.DeepEqual(sessIDs, wantIDs) || sessW != wantW {
			t.Errorf("%v: session window query differs: %v %+v vs %v %+v",
				engine, sessIDs, sessW, wantIDs, wantW)
		}
	}
}

// queryMix runs one goroutine's worth of mixed queries against shared
// relations, each query on a fresh session, and compares every result
// and statistic against the precomputed baselines.
type queryBaselines struct {
	window     geom.Rect
	windowIDs  []int32
	windowSt   WindowStats
	point      geom.Point
	pointIDs   []int32
	pointSt    WindowStats
	nearest    []Neighbor
	joinSt     Stats
	joinPairs  []Pair
	containsSt Stats
	containsP  []Pair
}

func computeBaselines(t *testing.T, r, s *Relation, cfg Config) *queryBaselines {
	b := &queryBaselines{
		window: geom.Rect{MinX: 0.15, MinY: 0.2, MaxX: 0.5, MaxY: 0.45},
		point:  geom.Point{X: 0.31, Y: 0.47},
	}
	b.windowIDs, b.windowSt = testWindowAccess(t, r, r.NewSession(), b.window, cfg)
	b.pointIDs, b.pointSt = testPointAccess(t, r, r.NewSession(), b.point, cfg)
	b.nearest = testNearestAccess(t, r, r.NewSession(), b.point, 5)
	b.joinSt = testJoinStream(t, r, s, cfg, func(p Pair) { b.joinPairs = append(b.joinPairs, p) },
		WithWorkers(2), WithSessions(r.NewSession(), s.NewSession()))
	sortPairs(b.joinPairs)
	b.containsP, b.containsSt = testJoinContainsAccess(t, r, s, r.NewSession(), s.NewSession(), cfg)
	return b
}

func runQueryMix(t *testing.T, g int, r, s *Relation, cfg Config, b *queryBaselines) {
	for round := 0; round < 3; round++ {
		switch (g + round) % 5 {
		case 0:
			ids, st := testWindowAccess(t, r, r.NewSession(), b.window, cfg)
			if !reflect.DeepEqual(ids, b.windowIDs) || st != b.windowSt {
				t.Errorf("goroutine %d: concurrent window query diverged from baseline", g)
			}
		case 1:
			ids, st := testPointAccess(t, r, r.NewSession(), b.point, cfg)
			if !reflect.DeepEqual(ids, b.pointIDs) || st != b.pointSt {
				t.Errorf("goroutine %d: concurrent point query diverged from baseline", g)
			}
		case 2:
			nn := testNearestAccess(t, r, r.NewSession(), b.point, 5)
			if !reflect.DeepEqual(nn, b.nearest) {
				t.Errorf("goroutine %d: concurrent nearest query diverged from baseline", g)
			}
		case 3:
			var pairs []Pair
			st := testJoinStream(t, r, s, cfg, func(p Pair) { pairs = append(pairs, p) },
				WithWorkers(2), WithSessions(r.NewSession(), s.NewSession()))
			sortPairs(pairs)
			if !reflect.DeepEqual(st, b.joinSt) {
				t.Errorf("goroutine %d: concurrent join stats diverged:\n got %+v\nwant %+v", g, st, b.joinSt)
			}
			if !reflect.DeepEqual(pairs, b.joinPairs) {
				t.Errorf("goroutine %d: concurrent join response set diverged", g)
			}
		case 4:
			pairs, st := testJoinContainsAccess(t, r, s, r.NewSession(), s.NewSession(), cfg)
			if !reflect.DeepEqual(st, b.containsSt) || !reflect.DeepEqual(pairs, b.containsP) {
				t.Errorf("goroutine %d: concurrent inclusion join diverged from baseline", g)
			}
		}
	}
}

// TestConcurrentQueriesInMemory issues mixed queries from many
// goroutines against one shared pair of BufferManager-backed relations.
// Run under -race this is the acceptance test for the per-query access
// contexts: every query must report exactly its solo-run results and
// statistics, and the lazily built exact representations must be safe to
// build concurrently.
func TestConcurrentQueriesInMemory(t *testing.T) {
	rp, sp := goldenSeries()
	cfg := DefaultConfig()
	cfg.BufferBytes = 8192
	r := NewRelation("R", rp, cfg)
	s := NewRelation("S", sp, cfg)
	b := computeBaselines(t, r, s, cfg)

	// Fresh relations so the concurrent goroutines also race on the lazy
	// Prepared/TR*-tree builds, not just on the page accounting.
	r = NewRelation("R", rp, cfg)
	s = NewRelation("S", sp, cfg)

	const goroutines = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runQueryMix(t, g, r, s, cfg, b)
		}(g)
	}
	wg.Wait()
}

// TestConcurrentQueriesOnReopenedRelation is the serving scenario: a
// relation persisted with SaveRelationFile, reopened once with
// OpenRelationFile, then queried by many goroutines concurrently.
func TestConcurrentQueriesOnReopenedRelation(t *testing.T) {
	rp, sp := goldenSeries()
	cfg := DefaultConfig()
	cfg.BufferBytes = 8192
	dir := t.TempDir()
	pathR, pathS := filepath.Join(dir, "r.store"), filepath.Join(dir, "s.store")
	if err := SaveRelationFile(pathR, NewRelation("R", rp, cfg), cfg); err != nil {
		t.Fatal(err)
	}
	if err := SaveRelationFile(pathS, NewRelation("S", sp, cfg), cfg); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRelationFile(pathR, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenRelationFile(pathS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := computeBaselines(t, r, s, cfg)

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runQueryMix(t, g, r, s, cfg, b)
		}(g)
	}
	wg.Wait()
}

// TestObjectLazyBuildsConcurrent races many goroutines on one Object's
// lazy representations: all callers must observe one canonical tree per
// capacity and one canonical prepared polygon.
func TestObjectLazyBuildsConcurrent(t *testing.T) {
	rp, _ := goldenSeries()
	o := &Object{ID: 0, Poly: rp[0]}
	const goroutines = 16
	var wg sync.WaitGroup
	trees := make([]interface{}, goroutines)
	preps := make([]interface{}, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			trees[g] = o.Tree(3)
			preps[g] = o.Prepared()
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if trees[g] != trees[0] {
			t.Fatal("concurrent same-capacity Tree() calls returned different instances")
		}
		if preps[g] != preps[0] {
			t.Fatal("concurrent Prepared() calls returned different instances")
		}
	}
}
