package spatialjoin_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"reflect"

	"spatialjoin"
)

// ExampleJoin runs the paper's three steps on a map of counties and its
// strategy-A shifted copy, then a window query and an ε-join on the same
// relations.
func ExampleJoin() {
	counties := spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 64, TargetVerts: 24, Seed: 42})
	shifted := spatialjoin.ShiftedCopy(counties, 0.45)
	// The paper's recommended configuration: an R*-tree MBR-join, the
	// 5-corner and maximum enclosed rectangle filter, and the TR*-tree
	// exact step. One tile is the paper's single R*-tree per relation.
	cfg := spatialjoin.DefaultConfig()
	r := spatialjoin.NewRelation("counties", counties, 1, cfg)
	s := spatialjoin.NewRelation("shifted", shifted, 1, cfg)
	ctx := context.Background()

	pairs, st, err := spatialjoin.Join(ctx, r, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("objects: %d × %d\n", r.Objects(), s.Objects())
	fmt.Printf("step 1, MBR-join: %d candidates\n", st.CandidatePairs)
	fmt.Printf("step 2, filter:   %d hits, %d false hits\n", st.FilterHits, st.FilterFalseHits)
	fmt.Printf("step 3, exact:    %d tested, %d hits\n", st.ExactTested, st.ExactHits)
	fmt.Printf("response set:     %d pairs, first %v\n", len(pairs), pairs[:4])

	// Query serves window, point, ε-range and nearest queries through the
	// same three steps.
	res, err := spatialjoin.Query(ctx, r,
		spatialjoin.ForWindow(spatialjoin.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("window query:     %d counties\n", len(res.IDs))

	// The ε-join keeps the pairs within distance ε, a superset of the
	// intersecting ones.
	within, _, err := spatialjoin.Join(ctx, r, s, spatialjoin.WithPredicate(spatialjoin.WithinDistance(0.01)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ε-join (ε=0.01):  %d pairs\n", len(within))
	// Output:
	// objects: 64 × 64
	// step 1, MBR-join: 388 candidates
	// step 2, filter:   98 hits, 89 false hits
	// step 3, exact:    201 tested, 166 hits
	// response set:     264 pairs, first [{0 0} {1 0} {1 1} {2 1}]
	// window query:     7 counties
	// ε-join (ε=0.01):  304 pairs
}

// ExampleWithStream hands each response pair to a callback as soon as it
// is decided instead of collecting the response set. The delivery order
// depends on the workers, the pairs and the statistics do not.
func ExampleWithStream() {
	counties := spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 100, TargetVerts: 16, Seed: 42})
	cfg := spatialjoin.DefaultConfig()
	r := spatialjoin.NewRelation("counties", counties, 2, cfg)
	s := spatialjoin.NewRelation("shifted", spatialjoin.ShiftedCopy(counties, 0.45), 2, cfg)
	ctx := context.Background()

	pairs, collected, err := spatialjoin.Join(ctx, r, s, spatialjoin.WithWorkers(1))
	if err != nil {
		log.Fatal(err)
	}
	// The emitter runs on one goroutine at a time, so it needs no lock.
	streamed := 0
	_, st, err := spatialjoin.Join(ctx, r, s, spatialjoin.WithWorkers(4),
		spatialjoin.WithStream(func(spatialjoin.Pair) { streamed++ }))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d pairs, streamed %d\n", len(pairs), streamed)
	fmt.Printf("equal statistics: %t (%d sub-joins, %d exact tests)\n",
		reflect.DeepEqual(st, collected), st.SubJoins, st.ExactTested)
	// Output:
	// collected 417 pairs, streamed 417
	// equal statistics: true (4 sub-joins, 296 exact tests)
}

// ExampleContains is the paper's inclusion query, "find all parks which
// are in a city", beside the intersection join of an independently
// placed layer of forests with lakes.
func ExampleContains() {
	cities := spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 49, TargetVerts: 24, Seed: 1848})
	// Strategy B places the forests at random and keeps their total area
	// equal to the data space's, so overlaps are plentiful.
	forests := spatialjoin.RandomizedCopy(spatialjoin.GenerateMap(spatialjoin.MapConfig{
		Cells: 36, TargetVerts: 24, HoleFraction: 0.35, Seed: 1871}), 3)
	// Parks: every ninth parcel of a fine tiling.
	var parks []*spatialjoin.Polygon
	for i, p := range spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 900, TargetVerts: 8, Seed: 1900}) {
		if i%9 == 0 {
			parks = append(parks, p)
		}
	}
	cfg := spatialjoin.DefaultConfig()
	cityRel := spatialjoin.NewRelation("cities", cities, 1, cfg)
	forestRel := spatialjoin.NewRelation("forests", forests, 1, cfg)
	parkRel := spatialjoin.NewRelation("parks", parks, 1, cfg)
	ctx := context.Background()

	overlaps, _, err := spatialjoin.Join(ctx, forestRel, cityRel)
	if err != nil {
		log.Fatal(err)
	}
	inside, st, err := spatialjoin.Join(ctx, cityRel, parkRel, spatialjoin.WithPredicate(spatialjoin.Contains()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forest × city overlaps: %d\n", len(overlaps))
	fmt.Printf("parks inside a city: %d of %d\n", len(inside), len(parks))
	fmt.Printf("inclusion join: %d candidates, %d decided by the filter, %d exact tests\n",
		st.CandidatePairs, st.FilterHits+st.FilterFalseHits, st.ExactTested)
	fmt.Printf("first (city, park) pairs: %v\n", inside[:3])
	// Output:
	// forest × city overlaps: 217
	// parks inside a city: 39 of 100
	// inclusion join: 109 candidates, 41 decided by the filter, 68 exact tests
	// first (city, park) pairs: [{1 4} {3 5} {3 8}]
}

// ExampleOpenRelation preprocesses a map once into a four-tile store,
// reopens it without preprocessing and answers point, window, nearest
// and ε-range queries from it.
func ExampleOpenRelation() {
	parcels := spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 144, TargetVerts: 16, HoleFraction: 0.08, Seed: 2024})
	cfg := spatialjoin.DefaultConfig()
	dir, err := os.MkdirTemp("", "parcels")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := spatialjoin.SaveRelation(dir, spatialjoin.NewRelation("parcels", parcels, 4, cfg)); err != nil {
		log.Fatal(err)
	}
	rel, err := spatialjoin.OpenRelation(dir, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reopened %d parcels in %d tiles\n", rel.Objects(), rel.Shards())

	ctx := context.Background()
	landmark := spatialjoin.Point{X: 0.42, Y: 0.58}
	queries := []struct {
		name string
		opts []spatialjoin.Option
	}{
		{"point", []spatialjoin.Option{spatialjoin.ForPoint(landmark)}},
		{"window", []spatialjoin.Option{spatialjoin.ForWindow(spatialjoin.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.3, MaxY: 0.3})}},
		{"ε-range", []spatialjoin.Option{spatialjoin.ForPoint(landmark), spatialjoin.WithPredicate(spatialjoin.WithinDistance(0.05))}},
	}
	for _, q := range queries {
		res, err := spatialjoin.Query(ctx, rel, q.opts...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %v\n", q.name, res.IDs)
	}
	near, err := spatialjoin.Query(ctx, rel, spatialjoin.ForNearest(landmark, 3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("nearest:")
	for _, nb := range near.Neighbors {
		fmt.Print(" ", nb.ID)
	}
	fmt.Println()
	// Output:
	// reopened 144 parcels in 4 tiles
	// point: [89]
	// window: [48 49 50 61 62]
	// ε-range: [77 78 88 89 90 101]
	// nearest: 89 77 90
}

// ExampleWithConfig decides the same join with the three exact engines of
// section 4 and counts their operations, the quantities Table 7 weighs.
// The answer does not depend on the engine; the work does.
func ExampleWithConfig() {
	base := spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 16, TargetVerts: 120, Seed: 1994})
	cfg := spatialjoin.DefaultConfig()
	cfg.UseFilter = false // every candidate reaches the exact step
	r := spatialjoin.NewRelation("R", base, 1, cfg)
	s := spatialjoin.NewRelation("S", spatialjoin.ShiftedCopy(base, 0.45), 1, cfg)

	for _, engine := range []spatialjoin.Engine{spatialjoin.EngineQuadratic, spatialjoin.EnginePlaneSweep, spatialjoin.EngineTRStar} {
		c := cfg
		c.Engine = engine
		_, st, err := spatialjoin.Join(context.Background(), r, s, spatialjoin.WithConfig(c))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s %d of %d hits, %v\n", engine, st.ExactHits, st.ExactTested, st.Ops)
	}
	// Output:
	// quadratic   61 of 78 hits, edge=656635 edgeLine=0 pos=0 edgeRect=0 rect=0 trap=0
	// plane-sweep 61 of 78 hits, edge=1534 edgeLine=0 pos=6236 edgeRect=20496 rect=0 trap=0
	// TR*-tree    61 of 78 hits, edge=0 edgeLine=0 pos=0 edgeRect=0 rect=1700 trap=80
}

// ExampleExplainJoin runs a join for its EXPLAIN record: the plan it ran
// under — the relations' build configuration, the TR*-tree engine with
// the filter on — and the counts it measured.
func ExampleExplainJoin() {
	base := spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 100, TargetVerts: 24, Seed: 7})
	cfg := spatialjoin.DefaultConfig()
	r := spatialjoin.NewRelation("R", base, 1, cfg)
	s := spatialjoin.NewRelation("S", spatialjoin.ShiftedCopy(base, 0.45), 1, cfg)

	ex, err := spatialjoin.ExplainJoin(context.Background(), r, s, true)
	if err != nil {
		log.Fatal(err)
	}
	p := ex.Explain.Plan
	fmt.Printf("plan: engine %s, filter %t\n", p.Engine, p.UseFilter)
	fmt.Printf("candidates: %d, exact tests: %d, result pairs: %d\n",
		ex.Explain.ActualCandidates, ex.Explain.ActualExactTested, ex.Explain.ActualResultPairs)
	// Output:
	// plan: engine trstar, filter true
	// candidates: 640, exact tests: 314, result pairs: 443
}
