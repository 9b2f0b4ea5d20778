package experiments

import (
	"testing"

	"spatialjoin/internal/decomp"
)

func TestAblationDecompositionShape(t *testing.T) {
	skipInShort(t)
	e := sharedEnv()
	tab := AblationDecomposition(e)
	// Per polygon: ear clipping splits a hole-free polygon into exactly
	// vertices − 2 triangles, and a holey one is triangulated by splitting
	// its trapezoids, so it has at least as many triangles as trapezoids.
	bw := e.BW()
	for i := 0; i < min(decompSample, len(bw)); i++ {
		p := bw[i]
		tris := decomp.TriangleStats(p).Components
		if len(p.Holes) == 0 {
			if want := p.NumVertices() - 2; tris != want {
				t.Errorf("polygon %d: %d triangles, want vertices − 2 = %d", i, tris, want)
			}
		} else if traps := decomp.TrapezoidStats(p).Components; tris < traps {
			t.Errorf("polygon %d (holey): %d triangles, fewer than its %d trapezoids", i, tris, traps)
		}
	}
	tris := cell(t, tab, 1, 1)
	convex := cell(t, tab, 2, 1)
	if convex > tris {
		t.Errorf("convex parts (%v) must not exceed triangles (%v)", convex, tris)
	}
	// Exact decompositions: area error is numerically negligible.
	for row := 0; row < 3; row++ {
		if cell(t, tab, row, 3) > 1e-6 {
			t.Errorf("row %d: area error %v too large", row, cell(t, tab, row, 3))
		}
	}
}

func TestAblationBufferPolicyShape(t *testing.T) {
	skipInShort(t)
	tab := AblationBufferPolicy(smallBig())
	if len(tab.Rows) != 3 {
		t.Fatal("need three policies")
	}
	lru := cell(t, tab, 0, 1)
	for row := 1; row < 3; row++ {
		if cell(t, tab, row, 1) < lru*0.85 {
			t.Errorf("policy %s beat LRU markedly (%v vs %v); unexpected for this workload",
				tab.Rows[row][0], cell(t, tab, row, 1), lru)
		}
	}
}

func TestAblationTRCapacityTrend(t *testing.T) {
	skipInShort(t)
	tab := AblationTRCapacityWide(sharedEnv())
	if len(tab.Rows) != 6 {
		t.Fatal("need six capacities")
	}
	costM3 := cell(t, tab, 0, 3)
	costM32 := cell(t, tab, 5, 3)
	if costM32 < costM3 {
		t.Errorf("M=32 weighted cost %v must exceed M=3 cost %v", costM32, costM3)
	}
}
