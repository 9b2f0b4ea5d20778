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
// tests, witness vertices, pooled convex clipping) are allocation-free by
// construction. The within-distance sweep reaches each of its outcomes:
// hits by MER and by witness, false hits and candidates.
func TestClassifyAllocFree(t *testing.T) {
	polys := data.GenerateMap(data.MapConfig{Cells: 16, TargetVerts: 32, Seed: 99})
	f := RecommendedFilter()
	opt := f.Kinds()
	a := Compute(polys[0], opt)
	b := Compute(polys[1], opt)
	c := Compute(polys[2], opt)

	// The sweep must reach a witness proof and every class.
	epss := []float64{0.01, 0.15, 0.18, 0.3}
	if !a.hasWit || !c.hasWit || a.MERA == nil || c.MERA == nil {
		t.Fatal("the sets lack witnesses or MERs")
	}
	seen := map[string]bool{}
	for _, eps := range epss {
		cl := f.ClassifyWithin(a, c, eps)
		seen[cl.String()] = true
		if cl == Hit && !progressiveWithin(f.Progressive, a, c, eps) {
			seen["witness"] = true
		}
	}
	if len(seen) != 4 {
		t.Fatalf("the sweep reached only %v", seen)
	}

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
		{"classify-within-sweep", func() {
			for _, eps := range epss {
				f.ClassifyWithin(a, c, eps)
			}
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
