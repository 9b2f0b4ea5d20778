package rstar

import (
	"math/rand"
	"sort"
	"testing"

	"spatialjoin/internal/geom"
)

func TestNearestNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	tree, items := buildTree(t, rng, 2000, DefaultConfig())
	for trial := 0; trial < 50; trial++ {
		p := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		k := 1 + rng.Intn(10)
		got := tree.NearestNeighbors(p, k)
		if len(got) != k {
			t.Fatalf("trial %d: got %d neighbours, want %d", trial, len(got), k)
		}
		// Brute-force ground truth on rect distance.
		dists := make([]float64, len(items))
		for i, it := range items {
			dists[i] = rectDist(it.Rect, p)
		}
		sort.Float64s(dists)
		for i, it := range got {
			d := rectDist(it.Rect, p)
			if d > dists[k-1]+1e-9 {
				t.Fatalf("trial %d: neighbour %d at distance %v, k-th true distance %v", trial, i, d, dists[k-1])
			}
			if i > 0 && d+1e-9 < rectDist(got[i-1].Rect, p) {
				t.Fatalf("trial %d: neighbours not in increasing distance order", trial)
			}
		}
	}
	if got := tree.NearestNeighbors(geom.Point{}, 0); got != nil {
		t.Error("k=0 must return nil")
	}
	empty := New(DefaultConfig())
	if got := empty.NearestNeighbors(geom.Point{}, 3); got != nil {
		t.Error("empty tree must return nil")
	}
}

func TestRectDist(t *testing.T) {
	r := geom.Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}
	cases := []struct {
		p geom.Point
		d float64
	}{
		{geom.Point{X: 1, Y: 1}, 0},
		{geom.Point{X: 3, Y: 1}, 1},
		{geom.Point{X: 1, Y: -2}, 2},
		{geom.Point{X: 5, Y: 6}, 5},
	}
	for _, c := range cases {
		if got := rectDist(r, c.p); got != c.d {
			t.Errorf("rectDist(%v) = %v, want %v", c.p, got, c.d)
		}
	}
}
