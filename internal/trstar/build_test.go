package trstar

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"spatialjoin/internal/data"
	"spatialjoin/internal/decomp"
	"spatialjoin/internal/geom"
)

// sf001 streams the first n objects (all when n is 0) of one side of the
// SF 0.01 dataset: loadgen.For(0.01)'s sizes and seeds, as approx's tests
// write them out.
func sf001(tb testing.TB, side string, n int) []*geom.Polygon {
	tb.Helper()
	mc := data.MapConfig{Cells: 1300, TargetVerts: 28, HoleFraction: 0.06, Extent: math.Sqrt(0.01), Seed: 73_520_100}
	if side == "S" {
		mc.Seed++
	}
	var polys []*geom.Polygon
	enough := errors.New("enough objects")
	_, err := data.StreamMap(mc, func(_ int32, p *geom.Polygon) error {
		polys = append(polys, p)
		if len(polys) == n {
			return enough
		}
		return nil
	})
	if err != nil && err != enough {
		tb.Fatal(err)
	}
	return polys
}

// TestConcurrentBuildsMatchReference builds trees on several goroutines
// at once, racing to memoise the same insertion orders (it runs first, so
// the memo starts empty): every tree must still be the reference build's.
func TestConcurrentBuildsMatchReference(t *testing.T) {
	polys := sf001(t, "S", 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id, p := range polys {
				traps := decomp.Trapezoidize(p)
				got, _ := New(traps, DefaultCapacity).MarshalBinary()
				want, _ := referenceNew(traps, DefaultCapacity).MarshalBinary()
				if !bytes.Equal(got, want) {
					t.Errorf("S %d: tree built concurrently differs from the reference", id)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBuildMatchesReference pins the build to the one it replaced: on
// both sides of the SF 0.01 corpus, Trapezoidize returns the reference
// sweep's trapezoids, and at every capacity the tree serializes to the
// reference tree's bytes — the same shape, entry order and height.
func TestBuildMatchesReference(t *testing.T) {
	for _, side := range []string{"R", "S"} {
		for id, p := range sf001(t, side, 0) {
			traps := decomp.Trapezoidize(p)
			if ref := referenceTrapezoidize(p); !slices.Equal(traps, ref) {
				t.Fatalf("%s %d: %d trapezoids differ from the reference's %d", side, id, len(traps), len(ref))
			}
			for _, capacity := range []int{3, 4, 5, 8} {
				got, err := New(traps, capacity).MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceNew(traps, capacity).MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %d, capacity %d: tree differs from the reference", side, id, capacity)
				}
			}
		}
	}
}

// TestNewAllocsBounded keeps the build's garbage from creeping back: a
// tree over ~40 trapezoids allocates its nodes, each with its entries,
// and a handful of per-build buffers — nothing per insertion.
func TestNewAllocsBounded(t *testing.T) {
	var p *geom.Polygon
	for _, q := range sf001(t, "R", 50) {
		if n := len(decomp.Trapezoidize(q)); n >= 38 && n <= 44 {
			p = q
			break
		}
	}
	if p == nil {
		t.Fatal("no object with ~40 trapezoids among the first 50")
	}
	traps := decomp.Trapezoidize(p)
	tree := New(traps, DefaultCapacity)
	nodes := countNodes(tree.root)
	allocs := testing.AllocsPerRun(20, func() { New(traps, DefaultCapacity) })
	if limit := float64(2*nodes + 16); allocs > limit {
		t.Errorf("New over %d trapezoids (%d nodes) allocates %.0f objects, want <= %.0f", len(traps), nodes, allocs, limit)
	}
}

func countNodes(n *node) int {
	c := 1
	if !n.leaf {
		for i := range n.entries {
			c += countNodes(n.entries[i].child)
		}
	}
	return c
}

var sinkTraps []decomp.Trapezoid

// BenchmarkBuild times the two stages of the TR*-tree build per object
// over the first 200 objects of the SF 0.01 corpus: the trapezoid sweep,
// and the tree over its output at the default capacity.
func BenchmarkBuild(b *testing.B) {
	polys := sf001(b, "R", 200)
	traps := make([][]decomp.Trapezoid, len(polys))
	for i, p := range polys {
		traps[i] = decomp.Trapezoidize(p)
	}
	b.Run("Trapezoidize", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, p := range polys {
				sinkTraps = decomp.Trapezoidize(p)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(polys)), "us/obj")
	})
	b.Run("New", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, tr := range traps {
				New(tr, DefaultCapacity)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(polys)), "us/obj")
	})
}
