package approx

import (
	"testing"

	"spatialjoin/internal/data"
)

// TestClassifyAllocFree is the allocation-regression guard of the step 2
// geometric filter: classifying a candidate pair with the paper's
// recommended configuration (5-corner + MER), with the false-area test
// enabled, and under the within-distance variant must not allocate — the
// filter runs once per candidate pair and its kernels (SAT, rectangle
// tests, pooled convex clipping) are allocation-free by construction.
func TestClassifyAllocFree(t *testing.T) {
	polys := data.GenerateMap(data.MapConfig{Cells: 16, TargetVerts: 32, Seed: 99})
	f := RecommendedFilter()
	opt := f.Kinds()
	a := Compute(polys[0], opt)
	b := Compute(polys[1], opt)
	c := Compute(polys[2], opt)

	cases := []struct {
		name string
		run  func()
	}{
		{"classify", func() {
			f.Classify(a, b)
			f.Classify(a, c)
			f.Classify(b, c)
		}},
		{"classify-false-area", func() {
			fa := f
			fa.UseFalseArea = true
			fa.Classify(a, b)
			fa.Classify(a, c)
		}},
		{"classify-within", func() {
			f.ClassifyWithin(a, b, 0.01)
			f.ClassifyWithin(a, c, 0.01)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.name == "classify-false-area" {
				t.Skip("the race detector empties sync.Pool at random; the clip scratch is pooled")
			}
			tc.run() // warm the clip pool
			if allocs := testing.AllocsPerRun(100, tc.run); allocs != 0 {
				t.Fatalf("filter classify allocates %.1f objects per run, want 0", allocs)
			}
		})
	}
}
