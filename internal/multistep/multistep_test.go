package multistep

import (
	"context"
	"sort"
	"testing"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/storage"
)

// The helpers below name the option sets the suites use over and over;
// each is one Join or Query call (the goldens they pin predate the
// option-based API and have not moved since).

// testJoin is the one-worker, collected join — the reference run.
func testJoin(t testing.TB, r, s *Relation, cfg Config) ([]Pair, Stats) {
	t.Helper()
	pairs, st, err := Join(context.Background(), r, s, WithConfig(cfg), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	return pairs, st
}

// testJoinWorkers is the collected join on the R*-tree generator with the
// given worker count.
func testJoinWorkers(t testing.TB, r, s *Relation, cfg Config, workers int) ([]Pair, Stats) {
	t.Helper()
	cfg.Step1 = Step1RStar
	pairs, st, err := Join(context.Background(), r, s, WithConfig(cfg), WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return pairs, st
}

// testJoinStream runs Join under cfg and opts, streaming the response to
// emit; a nil emit runs bufferless (statistics only).
func testJoinStream(t testing.TB, r, s *Relation, cfg Config, emit func(Pair), opts ...Option) Stats {
	t.Helper()
	o := append([]Option{WithConfig(cfg)}, opts...)
	if emit != nil {
		o = append(o, WithStream(emit))
	} else {
		o = append(o, WithBufferless())
	}
	_, st, err := Join(context.Background(), r, s, o...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// testJoinContains is the inclusion join; testJoinContainsAccess runs it
// on explicit per-query sessions.
func testJoinContains(t testing.TB, r, s *Relation, cfg Config) ([]Pair, Stats) {
	t.Helper()
	pairs, st, err := Join(context.Background(), r, s,
		WithConfig(cfg), WithPredicate(Contains()))
	if err != nil {
		t.Fatal(err)
	}
	return pairs, st
}

func testJoinContainsAccess(t testing.TB, r, s *Relation, axR, axS storage.Accessor, cfg Config) ([]Pair, Stats) {
	t.Helper()
	pairs, st, err := Join(context.Background(), r, s,
		WithConfig(cfg), WithPredicate(Contains()), WithSessions(axR, axS))
	if err != nil {
		t.Fatal(err)
	}
	return pairs, st
}

// testWindow, testPoint and their *Access forms (explicit session) are
// the window, point and nearest queries.
func testWindow(t testing.TB, rel *Relation, w geom.Rect, cfg Config) ([]int32, WindowStats) {
	t.Helper()
	res, err := Query(context.Background(), rel, ForWindow(w), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return res.IDs, res.Stats
}

func testWindowAccess(t testing.TB, rel *Relation, ax storage.Accessor, w geom.Rect, cfg Config) ([]int32, WindowStats) {
	t.Helper()
	res, err := Query(context.Background(), rel, ForWindow(w), WithConfig(cfg), WithSession(ax))
	if err != nil {
		t.Fatal(err)
	}
	return res.IDs, res.Stats
}

func testPoint(t testing.TB, rel *Relation, p geom.Point, cfg Config) ([]int32, WindowStats) {
	t.Helper()
	res, err := Query(context.Background(), rel, ForPoint(p), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return res.IDs, res.Stats
}

func testPointAccess(t testing.TB, rel *Relation, ax storage.Accessor, p geom.Point, cfg Config) ([]int32, WindowStats) {
	t.Helper()
	res, err := Query(context.Background(), rel, ForPoint(p), WithConfig(cfg), WithSession(ax))
	if err != nil {
		t.Fatal(err)
	}
	return res.IDs, res.Stats
}

func testNearestAccess(t testing.TB, rel *Relation, ax storage.Accessor, p geom.Point, k int) []Neighbor {
	t.Helper()
	res, err := Query(context.Background(), rel, ForNearest(p, k), WithSession(ax))
	if err != nil {
		t.Fatal(err)
	}
	return res.Neighbors
}

// smallSeries builds a reduced test series so the full pipeline can be
// cross-validated against nested loops quickly.
func smallSeries(t *testing.T) ([]*geom.Polygon, []*geom.Polygon) {
	t.Helper()
	r := data.GenerateMap(data.MapConfig{Cells: 80, TargetVerts: 48, HoleFraction: 0.1, Seed: 211})
	s := data.StrategyA(r, 0.45)
	return r, s
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}

func assertSameResponse(t *testing.T, name string, got, want []Pair) {
	t.Helper()
	sortPairs(got)
	sortPairs(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestJoinMatchesNestedLoopsAllEngines is the repository's central
// correctness theorem: every configuration of the multi-step processor
// computes exactly the brute-force response set.
func TestJoinMatchesNestedLoopsAllEngines(t *testing.T) {
	rp, sp := smallSeries(t)
	want := NestedLoopsJoin(rp, sp)
	if len(want) == 0 {
		t.Fatal("workload has no intersecting pairs; test is vacuous")
	}

	for _, engine := range []Engine{EngineQuadratic, EnginePlaneSweep, EngineTRStar} {
		for _, useFilter := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Engine = engine
			cfg.UseFilter = useFilter
			r := NewRelation("R", rp, cfg)
			s := NewRelation("S", sp, cfg)
			got, st := testJoin(t, r, s, cfg)
			name := engine.String()
			if useFilter {
				name += "+filter"
			}
			assertSameResponse(t, name, got, want)
			if st.ResultPairs != int64(len(want)) {
				t.Errorf("%s: ResultPairs = %d, want %d", name, st.ResultPairs, len(want))
			}
			if st.CandidatePairs < int64(len(want)) {
				t.Errorf("%s: candidate set smaller than the response set", name)
			}
			if useFilter {
				if st.FilterHits == 0 || st.FilterFalseHits == 0 {
					t.Errorf("%s: filter identified nothing (hits %d, false hits %d)",
						name, st.FilterHits, st.FilterFalseHits)
				}
				if st.ExactTested >= st.CandidatePairs {
					t.Errorf("%s: filter did not reduce exact tests", name)
				}
			} else if st.ExactTested != st.CandidatePairs {
				t.Errorf("%s: without filter every candidate must reach step 3", name)
			}
		}
	}
}

func TestJoinWithFalseAreaTest(t *testing.T) {
	rp, sp := smallSeries(t)
	want := NestedLoopsJoin(rp, sp)
	cfg := DefaultConfig()
	cfg.Filter.UseFalseArea = true
	r := NewRelation("R", rp, cfg)
	s := NewRelation("S", sp, cfg)
	got, _ := testJoin(t, r, s, cfg)
	assertSameResponse(t, "false-area", got, want)
}

func TestJoinStrategyB(t *testing.T) {
	rel := data.GenerateMap(data.MapConfig{Cells: 60, TargetVerts: 40, Seed: 223})
	rp := data.StrategyB(rel, 5)
	sp := data.StrategyB(rel, 6)
	want := NestedLoopsJoin(rp, sp)
	cfg := DefaultConfig()
	r := NewRelation("R", rp, cfg)
	s := NewRelation("S", sp, cfg)
	got, _ := testJoin(t, r, s, cfg)
	assertSameResponse(t, "strategy B", got, want)
}

// TestJoinExplainActuals: a planned join's Explain keeps its plan record
// and, after execution, carries actuals equal to the join's statistics.
func TestJoinExplainActuals(t *testing.T) {
	rp, sp := smallSeries(t)
	cfg := DefaultConfig()
	r, s := NewRelation("R", rp, cfg), NewRelation("S", sp, cfg)
	for _, pred := range []Predicate{Intersects(), Contains()} {
		var ex Explain
		_, st, err := Join(context.Background(), r, s, WithPredicate(pred), WithPlan(), WithExplain(&ex))
		if err != nil {
			t.Fatalf("%v: %v", pred, err)
		}
		if !ex.Executed || !ex.Plan.Planned {
			t.Errorf("%v: explain executed=%t planned=%t, want both", pred, ex.Executed, ex.Plan.Planned)
		}
		if ex.ActualCandidates != st.CandidatePairs || ex.ActualExactTested != st.ExactTested || ex.ActualResultPairs != st.ResultPairs {
			t.Errorf("%v: explain actuals %d/%d/%d, stats %d/%d/%d", pred,
				ex.ActualCandidates, ex.ActualExactTested, ex.ActualResultPairs, st.CandidatePairs, st.ExactTested, st.ResultPairs)
		}
	}
}

func TestFilterReducesExactWork(t *testing.T) {
	rp, sp := smallSeries(t)
	base := DefaultConfig()
	base.UseFilter = false
	withFilter := DefaultConfig()

	r0 := NewRelation("R", rp, base)
	s0 := NewRelation("S", sp, base)
	_, st0 := testJoin(t, r0, s0, base)

	r1 := NewRelation("R", rp, withFilter)
	s1 := NewRelation("S", sp, withFilter)
	_, st1 := testJoin(t, r1, s1, withFilter)

	if st1.ExactTested >= st0.ExactTested {
		t.Errorf("filter must reduce exact tests: %d vs %d", st1.ExactTested, st0.ExactTested)
	}
	if st1.Identified() < 0.2 {
		t.Errorf("filter identified only %.0f%% of candidates; expected a Figure 12-like share",
			100*st1.Identified())
	}
}

func TestEntryBytes(t *testing.T) {
	cfg := DefaultConfig() // 5-C (40) + MER (16) + MBR (16) + info (32)
	if got := EntryBytes(cfg); got != 104 {
		t.Errorf("EntryBytes = %d, want 104", got)
	}
	cfg.UseFilter = false
	if got := EntryBytes(cfg); got != 48 {
		t.Errorf("EntryBytes without filter = %d, want 48", got)
	}
	cfg = DefaultConfig()
	cfg.Filter.Conservative = approx.RMBR
	if got := EntryBytes(cfg); got != 84 {
		t.Errorf("EntryBytes with RMBR = %d, want 84", got)
	}
}

func TestLargerEntriesCostPages(t *testing.T) {
	// Figure 11's "loss": storing approximations lowers page capacity and
	// raises MBR-join page accesses.
	rp, sp := smallSeries(t)
	plain := DefaultConfig()
	plain.UseFilter = false
	filt := DefaultConfig()

	r0 := NewRelation("R", rp, plain)
	s0 := NewRelation("S", sp, plain)
	_, st0 := testJoin(t, r0, s0, plain)
	r1 := NewRelation("R", rp, filt)
	s1 := NewRelation("S", sp, filt)
	_, st1 := testJoin(t, r1, s1, filt)

	if r1.Tree.Pages() <= r0.Tree.Pages() {
		t.Errorf("larger entries must allocate more pages: %d vs %d", r1.Tree.Pages(), r0.Tree.Pages())
	}
	// Page accesses may or may not grow (buffering), but the trees must
	// deliver identical candidate sets.
	if st0.CandidatePairs != st1.CandidatePairs {
		t.Errorf("candidate sets differ: %d vs %d", st0.CandidatePairs, st1.CandidatePairs)
	}
}

func TestStatsIdentified(t *testing.T) {
	st := Stats{CandidatePairs: 100, FilterHits: 23, FilterFalseHits: 23}
	if got := st.Identified(); got != 0.46 {
		t.Errorf("Identified = %v, want 0.46", got)
	}
	if (Stats{}).Identified() != 0 {
		t.Error("empty stats must identify 0")
	}
}

func TestObjectLazyRepresentations(t *testing.T) {
	p := geom.NewPolygon([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}})
	o := &Object{ID: 1, Poly: p, Approx: approx.Compute(p, approx.Options{})}
	pp := o.Prepared()
	if pp == nil || o.Prepared() != pp {
		t.Error("Prepared must build once and cache")
	}
	tr := o.Tree(3)
	if tr == nil || o.Tree(3) != tr {
		t.Error("Tree must build once and cache per capacity")
	}
	if o.Tree(4) == tr {
		t.Error("different capacity must rebuild the tree")
	}
}

func TestEngineString(t *testing.T) {
	if EngineQuadratic.String() != "quadratic" ||
		EnginePlaneSweep.String() != "plane-sweep" ||
		EngineTRStar.String() != "TR*-tree" {
		t.Error("engine names wrong")
	}
}
