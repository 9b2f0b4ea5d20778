// Map service: a batch query workload over a persisted map — the spatial
// selections of section 2 (point queries, window queries, nearest
// neighbours) served by the same multi-step machinery as the join. The
// map is generated and preprocessed once into a four-tile relation store,
// reopened without preprocessing, and then a mixed workload runs against
// it.
//
//	go run ./examples/map_service
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"spatialjoin"
)

func main() {
	// Build once: preprocess the base map — approximations, R*-trees,
	// TR*-trees — and persist it (cmd/datagen -store writes the same
	// directory layout).
	parcels := spatialjoin.GenerateMap(spatialjoin.MapConfig{
		Cells:        900,
		TargetVerts:  48,
		HoleFraction: 0.08,
		Seed:         2024,
	})
	cfg := spatialjoin.DefaultConfig()
	dir, err := os.MkdirTemp("", "map_service")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	if err := spatialjoin.SaveRelation(dir, spatialjoin.NewRelation("parcels", parcels, 4, cfg)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preprocessed %d parcels into a 4-tile store in %.2fs\n", len(parcels), time.Since(start).Seconds())

	// Serve many: reopening skips the preprocessing.
	start = time.Now()
	rel, err := spatialjoin.OpenRelation(dir, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reopened in %.2fs\n\n", time.Since(start).Seconds())

	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	// Point queries: which parcel is here?
	hits := 0
	start = time.Now()
	for i := 0; i < 500; i++ {
		p := spatialjoin.Point{X: rng.Float64(), Y: rng.Float64()}
		res, err := spatialjoin.Query(ctx, rel, spatialjoin.ForPoint(p))
		if err != nil {
			log.Fatal(err)
		}
		hits += len(res.IDs)
	}
	fmt.Printf("500 point queries: %d parcels found, %.1f µs/query\n",
		hits, time.Since(start).Seconds()/500*1e6)

	// Window queries: what is visible in this viewport?
	found := 0
	decided := int64(0)
	var cands int64
	start = time.Now()
	for i := 0; i < 200; i++ {
		x, y := rng.Float64()*0.9, rng.Float64()*0.9
		w := spatialjoin.Rect{MinX: x, MinY: y, MaxX: x + 0.08, MaxY: y + 0.08}
		res, err := spatialjoin.Query(ctx, rel, spatialjoin.ForWindow(w))
		if err != nil {
			log.Fatal(err)
		}
		found += len(res.IDs)
		decided += res.Stats.FilterHits + res.Stats.FilterFalseHits
		cands += res.Stats.Candidates
	}
	fmt.Printf("200 window queries: %d results, filter decided %.0f%% of candidates, %.1f µs/query\n",
		found, 100*float64(decided)/float64(cands), time.Since(start).Seconds()/200*1e6)

	// Nearest neighbours: the five parcels closest to a landmark.
	landmark := spatialjoin.Point{X: 0.42, Y: 0.58}
	near, err := spatialjoin.Query(ctx, rel, spatialjoin.ForNearest(landmark, 5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfive parcels nearest to the landmark:")
	for _, nb := range near.Neighbors {
		fmt.Printf("  parcel %3d at distance %.4f (%d vertices)\n",
			nb.ID, nb.Dist, parcels[nb.ID].NumVertices())
	}

	// ε-range query: every parcel within 0.02 of the landmark — the
	// within-distance predicate on a point target.
	rng2, err := spatialjoin.Query(ctx, rel, spatialjoin.ForPoint(landmark),
		spatialjoin.WithPredicate(spatialjoin.WithinDistance(0.02)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nparcels within ε=0.02 of the landmark: %d\n", len(rng2.IDs))
}
