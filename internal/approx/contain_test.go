package approx

import (
	"math"
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
)

func setOf(t *testing.T, pts []geom.Point) *Set {
	t.Helper()
	return Compute(geom.NewPolygon(pts), AllOptions())
}

func TestContainsApproxRectInRing(t *testing.T) {
	big := setOf(t, sq(0, 0, 2))
	small := setOf(t, sq(0, 0, 0.5))
	// MER of the small square inside the 5-C of the big square.
	if got := ContainsApprox(C5, big, MER, small); got != Yes {
		t.Errorf("MER(small) ⊆ 5-C(big): got %v, want Yes", got)
	}
	// Reverse direction cannot hold.
	if got := ContainsApprox(C5, small, MER, big); got != No {
		t.Errorf("MER(big) ⊆ 5-C(small): got %v, want No", got)
	}
	// MBR as container.
	if got := ContainsApprox(MBR, big, MBR, small); got != Yes {
		t.Errorf("MBR ⊆ MBR: got %v, want Yes", got)
	}
}

func TestContainsApproxCircleCases(t *testing.T) {
	big := setOf(t, sq(0, 0, 2))
	small := setOf(t, sq(0, 0, 0.5))
	// MEC(small) inside MBC(big).
	if got := ContainsApprox(MBC, big, MEC, small); got != Yes {
		t.Errorf("MEC(small) ⊆ MBC(big): got %v, want Yes", got)
	}
	// Circle in circle, negative.
	far := setOf(t, sq(10, 10, 0.5))
	if got := ContainsApprox(MBC, small, MEC, far); got != No {
		t.Errorf("disjoint circle containment: got %v, want No", got)
	}
	// Circle inside convex ring.
	if got := ContainsApprox(C5, big, MEC, small); got != Yes {
		t.Errorf("MEC(small) ⊆ 5-C(big): got %v, want Yes", got)
	}
	// Circle poking out of a ring.
	offset := setOf(t, sq(1.9, 0, 0.8))
	if got := ContainsApprox(C5, small, MEC, offset); got != No {
		t.Errorf("escaping circle: got %v, want No", got)
	}
}

func TestContainsApproxEllipseCases(t *testing.T) {
	big := setOf(t, sq(0, 0, 3))
	small := setOf(t, sq(0, 0, 0.5))
	// Ellipse containee in rect container: exact via the bounding box.
	if got := ContainsApprox(MBR, big, MBE, small); got != Yes {
		t.Errorf("MBE(small) ⊆ MBR(big): got %v, want Yes", got)
	}
	if got := ContainsApprox(MBR, small, MBE, big); got != No {
		t.Errorf("MBE(big) ⊆ MBR(small): got %v, want No", got)
	}
	// Ellipse as container: only certain answers are allowed to be acted
	// on; a far-away containee must give No.
	far := setOf(t, sq(10, 10, 0.5))
	if got := ContainsApprox(MBE, small, MEC, far); got != No {
		t.Errorf("far circle vs ellipse container: got %v, want No", got)
	}
	// Circle containee concentric with the ellipse: must never claim Yes
	// wrongly; Unknown is acceptable.
	if got := ContainsApprox(MBE, small, MEC, big); got == Yes {
		t.Error("large circle cannot be inside a small ellipse")
	}
}

func TestContainsApproxSoundnessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(907))
	for trial := 0; trial < 300; trial++ {
		mk := func(cx, cy, r float64, n int) ([]geom.Point, *geom.Polygon) {
			pts := make([]geom.Point, n)
			for i := 0; i < n; i++ {
				ang := 2 * math.Pi * float64(i) / float64(n)
				rr := r * (0.5 + 0.5*rng.Float64())
				pts[i] = geom.Point{X: cx + rr*math.Cos(ang), Y: cy + rr*math.Sin(ang)}
			}
			return pts, geom.NewPolygon(pts)
		}
		_, pa := mk(0, 0, 1.2, 10)
		_, pb := mk(rng.Float64()-0.5, rng.Float64()-0.5, 0.4, 8)
		sa := Compute(pa, AllOptions())
		sb := Compute(pb, AllOptions())
		truth := pa.ContainsPolygon(pb)
		// Hit direction: cons(b) ⊆ prog(a) ⇒ a ⊇ b.
		for _, pk := range ProgressiveKinds {
			for _, ck := range []Kind{MBR, RMBR, C4, C5, CH, MBC, MBE} {
				if ContainsApprox(pk, sa, ck, sb) == Yes && !truth {
					t.Fatalf("trial %d: UNSOUND Yes for cons=%v prog=%v", trial, ck, pk)
				}
			}
		}
		// False-hit direction: prog(b) ⊄ cons(a) ⇒ ¬(a ⊇ b).
		for _, ck := range []Kind{MBR, RMBR, C4, C5, CH, MBC, MBE} {
			for _, pk := range ProgressiveKinds {
				if ContainsApprox(ck, sa, pk, sb) == No && truth {
					t.Fatalf("trial %d: UNSOUND No for cons=%v prog=%v", trial, ck, pk)
				}
			}
		}
	}
}

func TestClassifyContainsDegenerate(t *testing.T) {
	f := RecommendedFilter()
	a := setOf(t, sq(0, 0, 1))
	b := setOf(t, sq(0, 0, 0.4))
	if got := f.ClassifyContains(a, b); got != Hit {
		t.Errorf("nested squares: got %v, want hit", got)
	}
	far := setOf(t, sq(5, 5, 0.4))
	if got := f.ClassifyContains(a, far); got != FalseHit {
		t.Errorf("far squares: got %v, want false hit", got)
	}
}

func TestIntersectsRectAllKinds(t *testing.T) {
	s := setOf(t, sq(0, 0, 1))
	inside := geom.Rect{MinX: -0.2, MinY: -0.2, MaxX: 0.2, MaxY: 0.2}
	outside := geom.Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}
	for _, k := range []Kind{MBR, RMBR, CH, C4, C5, MBC, MBE, MEC, MER} {
		if !intersectsRect(k, s, inside) {
			t.Errorf("%v must intersect a window at the object center", k)
		}
		if intersectsRect(k, s, outside) {
			t.Errorf("%v must not reach a far window", k)
		}
	}
}

func TestClassifyWindowSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(911))
	f := RecommendedFilter()
	decided := 0
	for trial := 0; trial < 400; trial++ {
		pts := make([]geom.Point, 8)
		cx, cy := rng.Float64()*4, rng.Float64()*4
		for i := range pts {
			ang := 2 * math.Pi * float64(i) / 8
			r := 0.3 + 0.7*rng.Float64()
			pts[i] = geom.Point{X: cx + r*math.Cos(ang), Y: cy + r*math.Sin(ang)}
		}
		p := geom.NewPolygon(pts)
		s := Compute(p, AllOptions())
		wx, wy := rng.Float64()*4, rng.Float64()*4
		w := geom.Rect{MinX: wx, MinY: wy, MaxX: wx + rng.Float64(), MaxY: wy + rng.Float64()}
		c := w.Corners()
		truth := p.Intersects(geom.NewPolygon(c[:]))
		switch f.ClassifyWindow(s, w) {
		case Hit:
			decided++
			if !truth {
				t.Fatalf("trial %d: window hit on non-intersecting object", trial)
			}
		case FalseHit:
			decided++
			if truth {
				t.Fatalf("trial %d: window false hit on intersecting object", trial)
			}
		}
	}
	if decided == 0 {
		t.Fatal("window classifier never decided")
	}
}
