package multistep

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
)

// testNearest is the k-nearest-objects query with shared-buffer
// accounting through the unified Query entry point.
func testNearest(t testing.TB, rel *Relation, p geom.Point, k int) []Neighbor {
	t.Helper()
	if k <= 0 {
		return nil
	}
	res, err := Query(context.Background(), rel, ForNearest(p, k))
	if err != nil {
		t.Fatal(err)
	}
	return res.Neighbors
}

func TestNearestObjectsMatchesBruteForce(t *testing.T) {
	polys := data.GenerateMap(data.MapConfig{Cells: 120, TargetVerts: 32, Seed: 941})
	cfg := DefaultConfig()
	cfg.UseFilter = false
	rel := NewRelation("R", polys, cfg)
	rng := rand.New(rand.NewSource(947))
	for trial := 0; trial < 60; trial++ {
		p := geom.Point{X: rng.Float64()*1.4 - 0.2, Y: rng.Float64()*1.4 - 0.2}
		k := 1 + rng.Intn(8)
		got := testNearest(t, rel, p, k)
		if len(got) != k {
			t.Fatalf("trial %d: got %d neighbours, want %d", trial, len(got), k)
		}
		// Brute-force ground truth.
		type nd struct {
			id int32
			d  float64
		}
		all := make([]nd, len(polys))
		for i, poly := range polys {
			all[i] = nd{id: int32(i), d: poly.DistToPoint(p)}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].d != all[j].d {
				return all[i].d < all[j].d
			}
			return all[i].id < all[j].id
		})
		for i, nb := range got {
			if nb.Dist > all[k-1].d+1e-9 {
				t.Fatalf("trial %d: neighbour %d at distance %v beyond true k-th %v",
					trial, i, nb.Dist, all[k-1].d)
			}
			if i > 0 && nb.Dist+1e-12 < got[i-1].Dist {
				t.Fatalf("trial %d: results not sorted by distance", trial)
			}
		}
		// The set of distances must match exactly (IDs may swap on ties).
		for i := 0; i < k; i++ {
			if gotD, wantD := got[i].Dist, all[i].d; gotD != wantD {
				t.Fatalf("trial %d: distance %d = %v, want %v", trial, i, gotD, wantD)
			}
		}
	}
}

func TestNearestObjectsEdgeCases(t *testing.T) {
	polys := data.GenerateMap(data.MapConfig{Cells: 9, TargetVerts: 24, Seed: 953})
	cfg := DefaultConfig()
	cfg.UseFilter = false
	rel := NewRelation("R", polys, cfg)
	if got := testNearest(t, rel, geom.Point{}, 0); got != nil {
		t.Error("k=0 must return nil")
	}
	// k larger than the relation clamps.
	got := testNearest(t, rel, geom.Point{X: 0.5, Y: 0.5}, 100)
	if len(got) != len(polys) {
		t.Errorf("k beyond relation size: got %d, want %d", len(got), len(polys))
	}
	// A point inside some polygon has distance 0 to it.
	inside := testNearest(t, rel, geom.Point{X: 0.5, Y: 0.5}, 1)
	if inside[0].Dist != 0 {
		t.Errorf("point inside the tiling must have a 0-distance neighbour, got %v", inside[0].Dist)
	}
}
