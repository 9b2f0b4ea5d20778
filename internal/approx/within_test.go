package approx

import (
	"math"
	"math/rand"
	"testing"

	"spatialjoin/internal/convex"
	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
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

// withinFilters are the filter configurations the soundness checks run:
// the recommended one, the MBR as the conservative kind, and circles with
// the false-area test.
var withinFilters = []FilterConfig{
	RecommendedFilter(),
	{Conservative: MBR, Progressive: MER},
	{Conservative: C5, Progressive: MEC, UseFalseArea: true},
}

// witnessDist is the distance at which the witness test of a and b turns:
// the least distance between a witness of one object and a witness or the
// MER of the other.
func witnessDist(a, b *Set) float64 {
	d2 := math.Inf(1)
	for _, p := range a.wit {
		for _, q := range b.wit {
			d2 = min(d2, p.Dist2(q))
		}
	}
	for _, pr := range [][2]*Set{{a, b}, {b, a}} {
		for _, p := range pr[0].wit {
			d2 = min(d2, pr[1].MERA.Dist2(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}))
		}
	}
	return math.Sqrt(d2)
}

// checkWithinSound classifies the pair (pa, pb) under every filter of
// withinFilters with eps swept across the objects' distance d and the
// witness test's turning distance w — 0, and x·(1 − 1e-9), x and
// x·(1 + 1e-9) for x in {d, w} — and fails unless every Hit lies within
// eps and every FalseHit beyond it. It returns the number of hits only
// the witness test proved.
func checkWithinSound(t testing.TB, pa, pb *geom.Polygon) (witnessHits int) {
	a, b := Compute(pa, AllOptions()), Compute(pb, AllOptions())
	d := pa.DistToPolygon(pb)
	epss := []float64{0}
	for _, x := range []float64{d, witnessDist(a, b)} {
		epss = append(epss, x*(1-1e-9), x, x*(1+1e-9))
	}
	for _, f := range withinFilters {
		for _, eps := range epss {
			for _, pr := range [][2]*Set{{a, b}, {b, a}} {
				switch f.ClassifyWithin(pr[0], pr[1], eps) {
				case Hit:
					if d > eps {
						t.Fatalf("UNSOUND: %+v at ε %.17g says hit, objects %.17g apart:\n%v\n%v", f, eps, d, pa, pb)
					}
					if !progressiveWithin(f.Progressive, pr[0], pr[1], eps) && witnessWithin(pr[0], pr[1], eps) {
						witnessHits++
					}
				case FalseHit:
					if d <= eps {
						t.Fatalf("UNSOUND: %+v at ε %.17g says false hit, objects %.17g apart:\n%v\n%v", f, eps, d, pa, pb)
					}
				}
			}
		}
	}
	return witnessHits
}

// snappedStar is a random star polygon around (cx, cy), some with a hole,
// with its vertices snapped to a grid of k units per radius, so that equal
// coordinates, collinear and axis-parallel edges are common; nil when the
// snapping made it self-intersect.
func snappedStar(rng *rand.Rand, cx, cy float64, n int, k float64, holey bool) *geom.Polygon {
	snap := func(p *geom.Polygon) []geom.Point {
		pts := p.Outer.Clone()
		for i := range pts {
			pts[i] = geom.Point{X: math.Round((pts[i].X + cx) * k), Y: math.Round((pts[i].Y + cy) * k)}
		}
		return pts
	}
	outer := snap(starPoly(rng, 0, 0, 1, n))
	p := geom.NewPolygon(outer)
	if holey {
		p = geom.NewPolygon(outer, snap(starPoly(rng, 0, 0, 0.3, 3+n%5)))
	}
	if p.ValidateSimple() != nil {
		return nil
	}
	return p
}

// TestClassifyWithinSound: a Hit of the ε-join filter is within ε and a
// FalseHit beyond it, with ε swept across each pair's true distance and
// across the witness test's turning point. The pairs are neighbours of
// a map with holes (shared, collinear edges), hand-made touching, nested,
// collinear and holey pairs, and grid-snapped stars.
func TestClassifyWithinSound(t *testing.T) {
	var pairs [][2]*geom.Polygon
	polys := data.GenerateMap(data.MapConfig{Cells: 25, TargetVerts: 24, HoleFraction: 0.3, Seed: 41})
	for i := range polys {
		for j := i + 1; j < len(polys); j++ {
			pairs = append(pairs, [2]*geom.Polygon{polys[i], polys[j]})
		}
	}
	rect := func(x0, y0, x1, y1 float64) []geom.Point {
		return []geom.Point{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}}
	}
	np := func(outer []geom.Point, holes ...[]geom.Point) *geom.Polygon { return geom.NewPolygon(outer, holes...) }
	pairs = append(pairs,
		[2]*geom.Polygon{np(sq(0, 0, 1)), np(sq(2, 0, 1))},                                                 // touching along an edge
		[2]*geom.Polygon{np(sq(0, 0, 1)), np(sq(2, 2, 1))},                                                 // touching at a corner
		[2]*geom.Polygon{np(rect(0, 0, 1, 1)), np(rect(1.5, 0, 2.5, 1))},                                   // collinear, witnesses realise the gap
		[2]*geom.Polygon{np(rect(0, 0, 1, 1)), np(rect(1.5, 0.25, 2.5, 0.75))},                             // collinear, witnesses do not
		[2]*geom.Polygon{np(sq(0, 0, 3)), np(sq(0.5, 0.5, 1))},                                             // nested
		[2]*geom.Polygon{np(sq(0, 0, 3), sq(0, 0, 2)), np(sq(0.25, 0, 1))},                                 // in a hole, 0.75 from its edge
		[2]*geom.Polygon{np(sq(0, 0, 3), sq(0, 0, 2)), np(sq(0, 0, 3.5), sq(0, 0, 3.25))},                  // ring around a ring
		[2]*geom.Polygon{np([]geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 1, Y: 1}}), np(rect(0, 1, 2, 2))}, // apex on an edge
		[2]*geom.Polygon{np([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 3}, {X: 0, Y: 2}}), np([]geom.Point{{X: 1.5, Y: 0}, {X: 3, Y: 0}, {X: 1.5, Y: 3}})},
	)
	rng := rand.New(rand.NewSource(53))
	for len(pairs) < 800 {
		k := float64(2 + rng.Intn(12))
		a := snappedStar(rng, 0, 0, 3+rng.Intn(40), k, rng.Intn(3) == 0)
		b := snappedStar(rng, float64(rng.Intn(5)-2)*0.5, float64(rng.Intn(5)-2)*0.5, 3+rng.Intn(40), k, rng.Intn(3) == 0)
		if a != nil && b != nil {
			pairs = append(pairs, [2]*geom.Polygon{a, b})
		}
	}
	witnessHits := 0
	for _, pr := range pairs {
		witnessHits += checkWithinSound(t, pr[0], pr[1])
	}
	if witnessHits == 0 {
		t.Fatal("no hit was proved by the witness test alone")
	}
	t.Logf("%d pairs, %d hits proved by witnesses alone", len(pairs), witnessHits)
}

// FuzzClassifyWithinSound is TestClassifyWithinSound's assertion on two
// grid-snapped stars, some with a hole, offset by a fuzzed number of
// grid steps.
func FuzzClassifyWithinSound(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(4), int8(3), int8(0))
	f.Add(int64(2), uint8(30), uint8(9), int8(-7), int8(5))
	f.Add(int64(7), uint8(5), uint8(1), int8(0), int8(0))
	f.Fuzz(func(t *testing.T, seed int64, n, step uint8, dx, dy int8) {
		rng := rand.New(rand.NewSource(seed))
		k := float64(2 + step%12)
		a := snappedStar(rng, 0, 0, 3+int(n%60), k, seed%2 == 0)
		b := snappedStar(rng, float64(dx)/k, float64(dy)/k, 3+int(n/4%60), k, seed%3 == 0)
		if a == nil || b == nil {
			t.Skip("not a simple polygon")
		}
		checkWithinSound(t, a, b)
	})
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
