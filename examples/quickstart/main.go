// Quickstart: run the paper's three-step spatial join on two small
// relations of polygons through the public API and inspect the per-step
// statistics.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"spatialjoin"
)

func main() {
	// A relation is simply a slice of polygons. Here we generate a small
	// cartographic map (a tiling of county-like polygons) and join it with
	// a shifted copy of itself — the paper's strategy A.
	counties := spatialjoin.GenerateMap(spatialjoin.MapConfig{
		Cells:       100, // polygons
		TargetVerts: 60,  // average boundary complexity
		Seed:        42,
	})
	shifted := spatialjoin.ShiftedCopy(counties, 0.45)

	// The paper's recommended configuration: MBR-join on an R*-tree,
	// geometric filter with the 5-corner + maximum enclosed rectangle,
	// exact step on TR*-trees with node capacity 3.
	cfg := spatialjoin.DefaultConfig()

	// NewRelation preprocesses each input once: approximations for every
	// object and the R*-tree over the MBRs — one tile here, the paper's
	// single tree; a larger tile count partitions the relation along the
	// Z-order curve without changing any answer.
	r := spatialjoin.NewRelation("counties", counties, 1, cfg)
	s := spatialjoin.NewRelation("shifted", shifted, 1, cfg)

	// One unified, context-aware entry point: the relations carry their
	// build configuration, the predicate and execution knobs are options.
	pairs, st, err := spatialjoin.Join(context.Background(), r, s)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("objects: %d × %d\n", len(counties), len(shifted))
	fmt.Printf("step 1 — MBR-join:   %d candidate pairs\n", st.CandidatePairs)
	fmt.Printf("step 2 — filter:     %d hits + %d false hits identified (%.0f%%)\n",
		st.FilterHits, st.FilterFalseHits, 100*st.Identified())
	fmt.Printf("step 3 — TR*-tree:   %d pairs needed exact geometry\n", st.ExactTested)
	fmt.Printf("response set:        %d intersecting pairs\n", len(pairs))
	fmt.Printf("first pairs:         ")
	for i, p := range pairs {
		if i == 5 {
			break
		}
		fmt.Printf("(%d,%d) ", p.A, p.B)
	}
	fmt.Println()

	// Window query through the same multi-step machinery (the unified
	// Query entry point serves window, point, ε-range and nearest).
	res, err := spatialjoin.Query(context.Background(), r,
		spatialjoin.ForWindow(spatialjoin.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("window query:        %d counties intersect the center window\n", len(res.IDs))

	// The within-distance (ε-)join rides the same index and pipeline:
	// pairs of regions within ε of each other, not just intersecting.
	within, _, err := spatialjoin.Join(context.Background(), r, s,
		spatialjoin.WithPredicate(spatialjoin.WithinDistance(0.01)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ε-join (ε=0.01):     %d pairs within distance (⊇ the %d intersecting)\n",
		len(within), len(pairs))
}
