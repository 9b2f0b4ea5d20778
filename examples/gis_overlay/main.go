// GIS overlay: the paper's motivating queries — "find all forests which
// intersect a city" and the inclusion variant "find all forests which are
// IN a city" (section 1) — on two thematically different layers through
// the public API: an administrative tiling (cities) and an independently
// placed layer of forest polygons, some with lakes (holes).
//
//	go run ./examples/gis_overlay
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"spatialjoin"
)

func main() {
	// Cities: an administrative tiling of 400 polygons.
	cities := spatialjoin.GenerateMap(spatialjoin.MapConfig{
		Cells:       400,
		TargetVerts: 72,
		Seed:        1848,
	})
	// Forests: an independent layer of 250 complex polygons with lakes,
	// randomly placed over the same data space (strategy B keeps their
	// total area equal to the data-space area, so overlaps are plentiful).
	forestBase := spatialjoin.GenerateMap(spatialjoin.MapConfig{
		Cells:        250,
		TargetVerts:  96,
		HoleFraction: 0.35, // lakes
		Seed:         1871,
	})
	forests := spatialjoin.RandomizedCopy(forestBase, 3)

	cfg := spatialjoin.DefaultConfig()
	cityRel := spatialjoin.NewRelation("cities", cities, 1, cfg)
	forestRel := spatialjoin.NewRelation("forests", forests, 1, cfg)

	ctx := context.Background()

	// Intersection join: forests touching a city.
	pairs, st, err := spatialjoin.Join(ctx, forestRel, cityRel)
	if err != nil {
		log.Fatal(err)
	}

	// Inclusion join: city parks (small parcels) entirely inside a city.
	parkGrid := spatialjoin.GenerateMap(spatialjoin.MapConfig{
		Cells:       3600, // fine tiling → small parcels
		TargetVerts: 24,
		Seed:        1900,
	})
	var parks []*spatialjoin.Polygon
	for i := 0; i < len(parkGrid); i += 12 {
		parks = append(parks, parkGrid[i])
	}
	parkRel := spatialjoin.NewRelation("parks", parks, 1, cfg)
	contained, _, err := spatialjoin.Join(ctx, cityRel, parkRel,
		spatialjoin.WithPredicate(spatialjoin.Contains()))
	if err != nil {
		log.Fatal(err)
	}

	// Aggregate: which forests intersect how many cities?
	perForest := map[int32]int{}
	for _, p := range pairs {
		perForest[p.A]++
	}
	type entry struct {
		forest int32
		cities int
	}
	var ranked []entry
	for f, c := range perForest {
		ranked = append(ranked, entry{f, c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].cities != ranked[j].cities {
			return ranked[i].cities > ranked[j].cities
		}
		return ranked[i].forest < ranked[j].forest
	})

	fmt.Printf("forests × cities: %d × %d objects\n", len(forests), len(cities))
	fmt.Printf("candidates %d → filter identified %.0f%% → exact tests %d → %d result pairs\n",
		st.CandidatePairs, 100*st.Identified(), st.ExactTested, len(pairs))
	fmt.Printf("%d of %d forests intersect at least one city\n", len(perForest), len(forests))
	fmt.Printf("%d of %d parks lie entirely within a city (inclusion join)\n", len(contained), len(parks))
	fmt.Println("most fragmented forests (forest id → #cities it spans):")
	for i, e := range ranked {
		if i == 5 {
			break
		}
		holes := len(forests[e.forest].Holes)
		fmt.Printf("  forest %3d spans %2d cities (%d lakes, %d vertices)\n",
			e.forest, e.cities, holes, forests[e.forest].NumVertices())
	}
}
