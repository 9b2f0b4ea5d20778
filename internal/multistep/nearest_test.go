package multistep

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"strconv"
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

// coincidentSquares returns n copies of the unit square: every nearest
// query about them is decided by the ID order alone.
func coincidentSquares(n int) []*geom.Polygon {
	polys := make([]*geom.Polygon, n)
	for i := range polys {
		polys[i] = geom.NewPolygon([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}})
	}
	return polys
}

// TestNearestTiesResolveByID is the regression test of the tie bug: the
// bulk refinement stopped as soon as the k-th exact distance was no
// greater than the last fetched MBR distance, with objects tied at that
// distance still unexamined, and answered 14, 29, 30 here.
func TestNearestTiesResolveByID(t *testing.T) {
	rel := NewRelation("R", coincidentSquares(40), DefaultConfig())
	for _, p := range []geom.Point{{X: 0.5, Y: 0.5}, {X: 3, Y: 0.5}} {
		got := testNearest(t, rel, p, 3)
		for i, nb := range got {
			if nb.ID != int32(i) {
				t.Fatalf("nearest to %v: neighbours %v, want IDs 0, 1, 2", p, got)
			}
		}
	}
}

// TestNearestRefinesOptimally checks the answer and the cost of the
// multi-step k-nearest search: the neighbours are the first k of a full
// sort by (DistToPoint, ID), and the objects refined are exactly those
// whose MBR distance does not exceed the k-th exact distance — the
// r-optimal count of Seidl and Kriegel, below which no algorithm that
// sees only MBR distances can be correct. (That NearestNeighborsAccess
// still returns what the bulk search did, page faults included, is
// TestNearestRankMatchesBulkSearch in rstar.)
func TestNearestRefinesOptimally(t *testing.T) {
	rng := rand.New(rand.NewSource(967))
	for trial := 0; trial < 6; trial++ {
		polys := data.GenerateMap(data.MapConfig{Cells: 60 + 40*trial, TargetVerts: 24, HoleFraction: 0.1, Seed: int64(971 + trial)})
		if trial == 5 {
			polys = append(polys, coincidentSquares(12)...)
		}
		rel := NewRelation("R", polys, DefaultConfig())
		for q := 0; q < 10; q++ {
			p := geom.Point{X: rng.Float64()*1.4 - 0.2, Y: rng.Float64()*1.4 - 0.2}
			all := make([]Neighbor, len(polys))
			for i, poly := range polys {
				all[i] = Neighbor{ID: int32(i), Dist: poly.DistToPoint(p)}
			}
			slices.SortFunc(all, CompareNeighbors)
			for _, k := range []int{1, 4, 32, len(polys)} {
				res, err := Query(context.Background(), rel, ForNearest(p, k))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.Neighbors, all[:k]) {
					t.Fatalf("trial %d k=%d at %v: neighbours %v, want %v", trial, k, p, res.Neighbors, all[:k])
				}
				var optimal int64
				for _, poly := range polys {
					b := poly.Bounds()
					if b.Dist(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}) <= all[k-1].Dist {
						optimal++
					}
				}
				if res.Stats.ExactTested != optimal || res.Stats.Candidates != optimal {
					t.Fatalf("trial %d k=%d at %v: refined %d objects of %d candidates, r-optimal is %d",
						trial, k, p, res.Stats.ExactTested, res.Stats.Candidates, optimal)
				}
			}
		}
	}
}

// BenchmarkNearestQuery decomposes the k-nearest path without the HTTP
// layer: one tile of the SF 0.01 dataset's size, queries spread over the
// territory. refined/op is the number of exact distance computations.
func BenchmarkNearestQuery(b *testing.B) {
	polys := data.GenerateMap(data.MapConfig{Cells: 325, TargetVerts: 28, HoleFraction: 0.06, Seed: 977})
	rel := NewRelation("R", polys, DefaultConfig())
	rng := rand.New(rand.NewSource(983))
	pts := make([]geom.Point, 256)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	for _, k := range []int{4, 32} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			var refined int64
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				res, err := Query(context.Background(), rel, ForNearest(pts[i%len(pts)], k), WithSession(rel.NewSession()))
				if err != nil {
					b.Fatal(err)
				}
				refined += res.Stats.ExactTested
			}
			b.ReportMetric(float64(refined)/float64(b.N), "refined/op")
		})
	}
}
