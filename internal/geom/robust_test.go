package geom

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// orientationRatReference is the test-only exact ground truth.
func orientationRatReference(o, a, b Point) int {
	ox := new(big.Rat).SetFloat64(o.X)
	oy := new(big.Rat).SetFloat64(o.Y)
	ax := new(big.Rat).Sub(new(big.Rat).SetFloat64(a.X), ox)
	ay := new(big.Rat).Sub(new(big.Rat).SetFloat64(a.Y), oy)
	bx := new(big.Rat).Sub(new(big.Rat).SetFloat64(b.X), ox)
	by := new(big.Rat).Sub(new(big.Rat).SetFloat64(b.Y), oy)
	t1 := new(big.Rat).Mul(ax, by)
	t2 := new(big.Rat).Mul(ay, bx)
	return t1.Cmp(t2)
}

func TestOrientationAdaptiveMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	for trial := 0; trial < 5000; trial++ {
		o := Point{X: rng.Float64(), Y: rng.Float64()}
		a := Point{X: rng.Float64(), Y: rng.Float64()}
		b := Point{X: rng.Float64(), Y: rng.Float64()}
		if got, want := OrientationAdaptive(o, a, b), orientationRatReference(o, a, b); got != want {
			t.Fatalf("trial %d: adaptive %d, exact %d", trial, got, want)
		}
	}
}

func TestOrientationAdaptiveNearCollinear(t *testing.T) {
	// Points on a line, then perturbed by single ulps — the adversarial
	// regime where the float kernel's epsilon answer is unreliable.
	rng := rand.New(rand.NewSource(821))
	for trial := 0; trial < 3000; trial++ {
		o := Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		d := Point{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1}
		t1 := rng.Float64() * 10
		t2 := t1 + rng.Float64()*10
		a := o.Add(d.Scale(t1))
		b := o.Add(d.Scale(t2))
		// Perturb b by 0..2 ulps in y.
		for k := 0; k < 3; k++ {
			bb := b
			for u := 0; u < k; u++ {
				bb.Y = math.Nextafter(bb.Y, math.Inf(1))
			}
			if got, want := OrientationAdaptive(o, a, bb), orientationRatReference(o, a, bb); got != want {
				t.Fatalf("trial %d ulp %d: adaptive %d, exact %d", trial, k, got, want)
			}
		}
	}
}

func TestOrientationAdaptiveExactCases(t *testing.T) {
	o := Point{X: 0, Y: 0}
	a := Point{X: 1, Y: 1}
	if OrientationAdaptive(o, a, Point{X: 2, Y: 2}) != 0 {
		t.Error("exactly collinear must be 0")
	}
	if OrientationAdaptive(o, a, Point{X: 1, Y: 1.0000000000000002}) != 1 {
		t.Error("one ulp above the diagonal must be CCW")
	}
	if OrientationAdaptive(o, a, Point{X: 1, Y: 0.9999999999999999}) != -1 {
		t.Error("one ulp below the diagonal must be CW")
	}
	if OrientationAdaptive(o, o, o) != 0 {
		t.Error("degenerate identical points must be 0")
	}
}

func BenchmarkOrientationFloat(b *testing.B) {
	o := Point{X: 0.1, Y: 0.2}
	p := Point{X: 0.7, Y: 0.9}
	q := Point{X: 0.4, Y: 0.3}
	for i := 0; i < b.N; i++ {
		_ = Orientation(o, p, q)
	}
}

func BenchmarkOrientationAdaptive(b *testing.B) {
	o := Point{X: 0.1, Y: 0.2}
	p := Point{X: 0.7, Y: 0.9}
	q := Point{X: 0.4, Y: 0.3}
	for i := 0; i < b.N; i++ {
		_ = OrientationAdaptive(o, p, q)
	}
}
