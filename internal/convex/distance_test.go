package convex

import (
	"math"
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
)

// segmentDistance is the reference the vertex–edge kernels are checked
// against: the segment–segment enumeration Distance was built on before
// — every edge pair's exact distance, each an intersection test plus four
// point–segment distances through math.Hypot. Rings with fewer than three
// vertices have no interior for it, so it is a reference only for pairs
// in which no such ring lies inside the other.
func segmentDistance(a, b geom.Ring) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	if len(a) >= 3 && len(b) >= 3 && SATIntersects(a, b) {
		return 0
	}
	d := math.Inf(1)
	for i := range a {
		ea := a.Edge(i)
		for j := range b {
			if dd := ea.DistToSegment(b.Edge(j)); dd < d {
				d = dd
			}
		}
	}
	return d
}

func translate(r geom.Ring, dx, dy float64) geom.Ring {
	out := make(geom.Ring, len(r))
	for i, p := range r {
		out[i] = geom.Point{X: p.X + dx, Y: p.Y + dy}
	}
	return out
}

// ringPairs generates the configurations the distance kernels must
// agree on: random hulls at random offsets (overlapping, near, far),
// 1- and 2-vertex rings, a vertex of one ring exactly on an edge of the
// other, one ring nested in the other, and rectangles whose facing edges
// are collinear or parallel.
func ringPairs(rng *rand.Rand, n int) [][2]geom.Ring {
	randRing := func() geom.Ring {
		switch rng.Intn(8) {
		case 0:
			return geom.Ring(randPts(rng, 1, 1))
		case 1:
			return geom.Ring(randPts(rng, 2, 1))
		default:
			return Hull(randPts(rng, 3+rng.Intn(10), 1))
		}
	}
	rect := func(x0, y0, x1, y1 float64) geom.Ring {
		return geom.Ring{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}}
	}
	var out [][2]geom.Ring
	for i := 0; i < n; i++ {
		a, b := randRing(), randRing()
		switch i % 5 {
		case 0, 1: // random offset: overlapping, near and far pairs
			b = translate(b, 3*rng.Float64()-1.5, 3*rng.Float64()-1.5)
		case 2: // touching: b's first vertex on a's first edge
			e := a.Edge(0)
			t := rng.Float64()
			on := geom.Point{X: e.A.X + t*(e.B.X-e.A.X), Y: e.A.Y + t*(e.B.Y-e.A.Y)}
			b = translate(b, on.X-b[0].X, on.Y-b[0].Y)
		case 3: // nested: b shrunk around a's vertex centroid
			c := PolygonSupport(a).Centroid()
			nb := make(geom.Ring, len(b))
			for k, p := range b {
				nb[k] = geom.Point{X: c.X + 0.01*(p.X-0.5), Y: c.Y + 0.01*(p.Y-0.5)}
			}
			b = nb
		case 4: // rectangles with collinear or parallel facing edges
			gap := []float64{0, 1e-9, 0.25}[rng.Intn(3)]
			a = rect(0, 0, 1, 1)
			if rng.Intn(2) == 0 {
				b = rect(1+gap, 0.3, 2+gap, 0.7) // side by side
			} else {
				b = rect(1+gap, 1, 2+gap, 2) // corner to corner, edges collinear
			}
		}
		out = append(out, [2]geom.Ring{a, b})
	}
	return out
}

// inside reports whether ring a (fewer than three vertices) has its first
// vertex in the closed region of the proper ring b.
func inside(a, b geom.Ring) bool {
	return len(a) < 3 && len(b) >= 3 && b.ContainsPoint(a[0])
}

func TestDistanceMatchesSegmentReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4711))
	for i, pr := range ringPairs(rng, 4000) {
		a, b := pr[0], pr[1]
		want := segmentDistance(a, b)
		if inside(a, b) || inside(b, a) {
			want = 0
		}
		for _, got := range []float64{Distance(a, b), Distance(b, a)} {
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("pair %d: Distance %.17g, segment reference %.17g\na=%v\nb=%v", i, got, want, a, b)
			}
		}
	}
	if d := Distance(nil, geom.Ring{{X: 1, Y: 1}}); !math.IsInf(d, 1) {
		t.Errorf("distance to an empty ring = %v, want +Inf", d)
	}
}

func TestWithinDistDecidesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(1931))
	for i, pr := range ringPairs(rng, 4000) {
		a, b := pr[0], pr[1]
		d := Distance(a, b)
		eps := []float64{0, 1e-3, 0.5, 10}
		for _, f := range []float64{0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 + 1e-6, 1 + 1e-3, 1.1, 2} {
			eps = append(eps, d*f)
		}
		for _, e := range eps {
			if math.Abs(e-d) <= 1e-9*d && e != d {
				continue // rounding may fall either way this close to the threshold
			}
			if d == 0 && e == 0 && len(a) >= 3 && len(b) >= 3 && !SATIntersects(a, b) {
				continue // touching within the SAT tolerance only from one side
			}
			want := d <= e
			if got := WithinDist(a, b, e); got != want {
				t.Fatalf("pair %d: WithinDist(eps=%.17g) = %v, Distance = %.17g\na=%v\nb=%v", i, e, got, d, a, b)
			}
			if got := WithinDist(b, a, e); got != want {
				t.Fatalf("pair %d: WithinDist(b, a, eps=%.17g) = %v, Distance = %.17g", i, e, got, d)
			}
		}
	}
	if WithinDist(nil, geom.Ring{{X: 1, Y: 1}}, math.MaxFloat64) {
		t.Error("nothing is within any distance of an empty ring")
	}
}

// TestWithinDistZeroIsSAT pins the ε = 0 contract the TR*-tree relies on:
// for proper rings, within distance 0 is the separating-axis verdict.
func TestWithinDistZeroIsSAT(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i, pr := range ringPairs(rng, 4000) {
		a, b := pr[0], pr[1]
		if len(a) < 3 || len(b) < 3 {
			continue
		}
		if got, want := WithinDist(a, b, 0), SATIntersects(a, b); got != want {
			t.Fatalf("pair %d: WithinDist(0) = %v, SATIntersects = %v\na=%v\nb=%v", i, got, want, a, b)
		}
	}
}

func TestWithinDistAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Hull(randPts(rng, 12, 1))
	b := translate(Hull(randPts(rng, 12, 1)), 1.2, 0.3)
	if allocs := testing.AllocsPerRun(100, func() {
		WithinDist(a, b, 0.1)
		WithinDist(a, b, 1)
		Distance(a, b)
	}); allocs != 0 {
		t.Fatalf("convex distance kernels allocate %.1f objects per run, want 0", allocs)
	}
}

var sinkBool bool

// BenchmarkConvexWithinDist times the step 2 decision kernel on 5-corner
// sized rings in the three regimes of a within-distance join: overlapping
// approximations (decided by the axis pass), separated but within eps
// (first vertex–edge pair within eps) and beyond eps (first axis whose gap
// exceeds eps).
func BenchmarkConvexWithinDist(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	base := MinBoundingKGon(Hull(randPts(rng, 30, 1)), 5)
	other := MinBoundingKGon(Hull(randPts(rng, 30, 1)), 5)
	for _, bc := range []struct {
		name string
		dx   float64
	}{{"overlap", 0.5}, {"near", 1.3}, {"far", 2.5}} {
		moved := translate(other, bc.dx, 0.1)
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkBool = WithinDist(base, moved, 0.5)
			}
		})
	}
}
