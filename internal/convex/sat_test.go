package convex

import (
	"math"
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
)

// refAxisGap is the definition hasSeparatingAxis and axisGap are held
// to: every vertex of both rings projected on every outward edge normal
// of a, separated when minB > maxA + Eps, far when the gap exceeds √eps2
// in units of the normal's length. Builtin min and max propagate NaN, so
// a NaN projection never separates.
func refAxisGap(a, b geom.Ring, eps2 float64) (separated, far bool) {
	for i := range a {
		p, q := a[i], a[(i+1)%len(a)]
		nx, ny := q.Y-p.Y, p.X-q.X
		maxA, minB := math.Inf(-1), math.Inf(1)
		for _, v := range a {
			maxA = max(maxA, v.X*nx+v.Y*ny)
		}
		for _, v := range b {
			minB = min(minB, v.X*nx+v.Y*ny)
		}
		if minB > maxA+geom.Eps {
			separated = true
			if gap := minB - maxA; gap*gap > eps2*(nx*nx+ny*ny) {
				far = true
			}
		}
	}
	return separated, far
}

// satPairs generates the ring pairs the separating-axis shortcut must
// decide as refAxisGap does: random hulls, 4- and 5-gons and trapezoids
// (some with coincident corners, whose zero-length edges have zero
// normals), rings with collinear vertices, some with a NaN vertex, at
// random offsets; and pairs whose gap along an edge normal of a is Eps
// and a few ulps either side.
func satPairs(rng *rand.Rand, n int) [][2]geom.Ring {
	trapezoid := func() geom.Ring {
		x0, w := rng.Float64(), rng.Float64()
		y := func() (lo, hi float64) {
			lo = rng.Float64()
			if rng.Intn(3) == 0 {
				return lo, lo // a triangle: two corners coincide
			}
			return lo, lo + rng.Float64()
		}
		l0, l1 := y()
		r0, r1 := y()
		return geom.Ring{{X: x0, Y: l0}, {X: x0 + w, Y: r0}, {X: x0 + w, Y: r1}, {X: x0, Y: l1}}
	}
	ring := func() geom.Ring {
		switch rng.Intn(5) {
		case 0:
			return MinBoundingKGon(Hull(randPts(rng, 30, 1)), 4)
		case 1:
			return MinBoundingKGon(Hull(randPts(rng, 30, 1)), 5)
		case 2:
			return trapezoid()
		case 3: // collinear: every edge split at its midpoint
			var out geom.Ring
			h := Hull(randPts(rng, 3+rng.Intn(6), 1))
			for i, p := range h {
				q := h[(i+1)%len(h)]
				out = append(out, p, geom.Point{X: (p.X + q.X) / 2, Y: (p.Y + q.Y) / 2})
			}
			return out
		default:
			return Hull(randPts(rng, 3+rng.Intn(12), 1))
		}
	}
	var out [][2]geom.Ring
	for len(out) < n {
		a, b := ring(), ring()
		if len(a) < 3 || len(b) < 3 {
			continue
		}
		if rng.Intn(2) == 0 {
			b = translate(b, 3*rng.Float64()-1.5, 3*rng.Float64()-1.5)
		} else {
			// Along the normal of a's edge i, to where b's smallest
			// projection is maxA + Eps, then k ulps of the offset further.
			i := rng.Intn(len(a))
			p, q := a[i], a[(i+1)%len(a)]
			nx, ny := q.Y-p.Y, p.X-q.X
			if l2 := nx*nx + ny*ny; l2 > 0 {
				maxA, minB := math.Inf(-1), math.Inf(1)
				for _, v := range a {
					maxA = max(maxA, v.X*nx+v.Y*ny)
				}
				for _, v := range b {
					minB = min(minB, v.X*nx+v.Y*ny)
				}
				t := (maxA + geom.Eps - minB) / l2
				k := rng.Intn(7) - 3
				for ; k > 0; k-- {
					t = math.Nextafter(t, math.Inf(1))
				}
				for ; k < 0; k++ {
					t = math.Nextafter(t, math.Inf(-1))
				}
				b = translate(b, t*nx, t*ny)
			}
		}
		if rng.Intn(20) == 0 {
			r := &a
			if rng.Intn(2) == 0 {
				r = &b
			}
			(*r)[rng.Intn(len(*r))].X = math.NaN()
		}
		out = append(out, [2]geom.Ring{a, b})
	}
	return out
}

func TestSeparatingAxisMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	separated := 0
	for i, pr := range satPairs(rng, 20000) {
		for _, ab := range [][2]geom.Ring{pr, {pr[1], pr[0]}} {
			a, b := ab[0], ab[1]
			sep, _ := refAxisGap(a, b, 0)
			if got := hasSeparatingAxis(a, b); got != sep {
				t.Fatalf("pair %d: hasSeparatingAxis = %v, definition %v\na=%v\nb=%v", i, got, sep, a, b)
			}
			if sep {
				separated++
			}
			for _, eps2 := range []float64{0, 1e-6, 0.01, 0.25, 4} {
				wantSep, wantFar := refAxisGap(a, b, eps2)
				gotSep, gotFar := axisGap(a, b, eps2)
				if gotFar != wantFar || (!gotFar && gotSep != wantSep) {
					t.Fatalf("pair %d eps2 %g: axisGap = (%v, %v), definition (%v, %v)\na=%v\nb=%v", i, eps2, gotSep, gotFar, wantSep, wantFar, a, b)
				}
			}
		}
	}
	if separated == 0 {
		t.Fatal("no generated pair is separated: the test decides nothing")
	}
}

// TestSeparatingAxisAtEps puts b's left side exactly at, and a few ulps
// either side of, a's right side plus Eps, on an axis whose projection
// is the x coordinate itself, so the comparison minB > maxA + Eps is
// made at its threshold.
func TestSeparatingAxisAtEps(t *testing.T) {
	a := geom.Ring{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	edge := 1 + geom.Eps
	for k := -3; k <= 3; k++ {
		x := edge
		for j := 0; j < max(k, -k); j++ {
			x = math.Nextafter(x, math.Inf(k))
		}
		b := geom.Ring{{X: x, Y: 0}, {X: x + 1, Y: 0}, {X: x + 1, Y: 1}, {X: x, Y: 1}}
		want := k > 0
		if got := hasSeparatingAxis(a, b); got != want {
			t.Errorf("b at 1+Eps%+d ulps: hasSeparatingAxis = %v, want %v", k, got, want)
		}
		if sep, _ := axisGap(a, b, 0); sep != want {
			t.Errorf("b at 1+Eps%+d ulps: axisGap separated = %v, want %v", k, sep, want)
		}
	}
}

// TestNaNNeverSeparates pins one projection rule for both separating-axis
// passes: a vertex with a NaN coordinate makes every projection of its
// ring NaN, and no NaN projection proves separation — so SATIntersects
// and WithinDist(·, ·, 0) agree, as within(0) ≡ intersects requires.
func TestNaNNeverSeparates(t *testing.T) {
	a := geom.Ring{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: math.NaN(), Y: 0.5}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	b := geom.Ring{{X: 3, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 1}, {X: 3, Y: 1}}
	for _, ab := range [][2]geom.Ring{{a, b}, {b, a}} {
		sat, within := SATIntersects(ab[0], ab[1]), WithinDist(ab[0], ab[1], 0)
		if !sat || !within {
			t.Errorf("SATIntersects = %v, WithinDist(0) = %v; want both true\na=%v\nb=%v", sat, within, ab[0], ab[1])
		}
	}
}

// BenchmarkSATIntersects times the separating-axis test on the ring
// pairs of the intersection join's steps 2 and 3: 5-corners of objects
// whose MBRs intersect, and trapezoids of two decompositions whose MBRs
// intersect. Each iteration tests every pair of a fixed set once.
func BenchmarkSATIntersects(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	mbrsMeet := func(a, c geom.Ring) bool { return a.Bounds().Intersects(c.Bounds()) }
	pairs := func(ring func() geom.Ring) [][2]geom.Ring {
		var out [][2]geom.Ring
		for len(out) < 256 {
			a, c := ring(), translate(ring(), 2*rng.Float64()-1, 2*rng.Float64()-1)
			if mbrsMeet(a, c) {
				out = append(out, [2]geom.Ring{a, c})
			}
		}
		return out
	}
	for _, bc := range []struct {
		name  string
		pairs [][2]geom.Ring
	}{
		{"5C", pairs(func() geom.Ring { return MinBoundingKGon(Hull(randPts(rng, 30, 1)), 5) })},
		{"trapezoid", pairs(func() geom.Ring {
			x0, w, l, r := rng.Float64(), 0.2*rng.Float64(), rng.Float64(), rng.Float64()
			return geom.Ring{{X: x0, Y: l}, {X: x0 + w, Y: r}, {X: x0 + w, Y: r + 0.3*rng.Float64()}, {X: x0, Y: l + 0.3*rng.Float64()}}
		})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for b.Loop() {
				for _, p := range bc.pairs {
					sinkBool = SATIntersects(p[0], p[1])
				}
			}
		})
	}
}
