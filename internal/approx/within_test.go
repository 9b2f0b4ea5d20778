package approx

import (
	"math"
	"testing"

	"spatialjoin/internal/convex"
	"spatialjoin/internal/data"
)

// TestWithinKernelsDecideApproximationDistance checks the step 2 decision
// tests of the ε-join kind by kind against the distance they stand for
// (exact ring distance for polygonal kinds, analytic for circles, MBR
// distance for the MBR and the ellipse fallback), with eps swept on both
// sides of it, and checks their soundness against the true object
// distance: conservative approximations beyond eps prove the objects are,
// an enclosed circle within eps proves the objects are.
func TestWithinKernelsDecideApproximationDistance(t *testing.T) {
	polys := data.GenerateMap(data.MapConfig{Cells: 25, TargetVerts: 24, HoleFraction: 0.2, Seed: 31})
	sets := make([]*Set, len(polys))
	for i, p := range polys {
		sets[i] = Compute(p, AllOptions())
	}
	circleDist := func(a, b *Circle) float64 { return math.Max(0, a.C.Dist(b.C)-a.R-b.R) }
	checked := 0
	for i, a := range sets {
		for j, b := range sets {
			if i == j {
				continue
			}
			truth := polys[i].DistToPolygon(polys[j])
			for _, k := range append([]Kind{MBR}, ConservativeKinds...) {
				var d float64
				switch k {
				case MBR, MBE:
					d = a.MBR.Dist(b.MBR)
				case MBC:
					d = circleDist(a.MBCA, b.MBCA)
				default:
					d = convex.Distance(a.Outline(k), b.Outline(k))
				}
				if d > truth+1e-9 {
					t.Fatalf("%v of objects %d,%d: approximations %.9g apart, objects %.9g", k, i, j, d, truth)
				}
				for _, eps := range []float64{0, d * 0.5, d * (1 - 1e-6), d * (1 + 1e-6), d*2 + 1e-3} {
					if got, want := conservativeWithin(k, a, b, eps), d <= eps; got != want && eps != d {
						t.Fatalf("conservativeWithin(%v, %d, %d, %.17g) = %v, approximation distance %.17g", k, i, j, eps, got, d)
					}
					checked++
				}
			}
			mer := a.MERA.Dist(*b.MERA)
			mec := math.Inf(1)
			if a.MECA.R > 0 && b.MECA.R > 0 {
				mec = circleDist(a.MECA, b.MECA)
				if mec < truth-1e-9 {
					t.Fatalf("MEC of objects %d,%d: circles %.9g apart, objects %.9g", i, j, mec, truth)
				}
			}
			for _, f := range []float64{0, 0.5, 1 - 1e-6, 1 + 1e-6, 2} {
				if eps := mer * f; !math.IsInf(mer, 1) && eps != mer {
					if got := progressiveWithin(MER, a, b, eps); got != (mer <= eps) {
						t.Fatalf("progressiveWithin(MER, %d, %d, %.17g) = %v, rectangle distance %.17g", i, j, eps, got, mer)
					}
				}
				if eps := mec * f; !math.IsInf(mec, 1) && eps != mec {
					if got := progressiveWithin(MEC, a, b, eps); got != (mec <= eps) {
						t.Fatalf("progressiveWithin(MEC, %d, %d, %.17g) = %v, circle distance %.17g", i, j, eps, got, mec)
					}
				}
				checked++
			}
			f := RecommendedFilter()
			if got, want := f.ClassifyWithin(a, b, 0), f.Classify(a, b); got != want {
				t.Fatalf("objects %d,%d: ClassifyWithin(0) = %v, Classify = %v", i, j, got, want)
			}
		}
	}
	if checked < 10000 {
		t.Fatalf("only %d decisions checked", checked)
	}
}

var sinkClass Class

// BenchmarkClassifyWithin times the step 2 filter of the ε-join with the
// recommended configuration (5-corner + MER) over the candidate pairs of a
// one-cell eps: every pair of map polygons whose MBRs are within eps per
// axis, as step 1 would deliver them.
func BenchmarkClassifyWithin(b *testing.B) {
	const eps = 1.0 / 8
	polys := data.GenerateMap(data.MapConfig{Cells: 64, TargetVerts: 28, HoleFraction: 0.06, Seed: 37})
	other := data.GenerateMap(data.MapConfig{Cells: 64, TargetVerts: 28, HoleFraction: 0.06, Seed: 38})
	f := RecommendedFilter()
	var pairs [][2]*Set
	ss := make([]*Set, len(other))
	for j, q := range other {
		ss[j] = Compute(q, f.Kinds())
	}
	for _, p := range polys {
		a := Compute(p, f.Kinds())
		for _, s := range ss {
			if a.MBR.Expand(eps).Intersects(s.MBR) {
				pairs = append(pairs, [2]*Set{a, s})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i%len(pairs)]
		sinkClass = f.ClassifyWithin(pr[0], pr[1], eps)
	}
}
