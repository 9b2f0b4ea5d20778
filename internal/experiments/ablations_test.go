package experiments

import (
	"testing"
)

func TestAblationDecompositionShape(t *testing.T) {
	skipInShort(t)
	tab := AblationDecomposition(sharedEnv())
	traps := cell(t, tab, 0, 1)
	tris := cell(t, tab, 1, 1)
	convex := cell(t, tab, 2, 1)
	if tris < traps {
		t.Errorf("triangles (%v) must be at least as many as trapezoids (%v)", tris, traps)
	}
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
