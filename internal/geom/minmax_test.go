package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The rectangle and segment-bound kernels use the builtin min and max.
// The language spec gives them math.Min's and math.Max's signed-zero and
// NaN rules with one exception: math.Min(-Inf, NaN) is -Inf and
// math.Max(+Inf, NaN) is +Inf, where the builtins answer NaN. The
// oracles below are the kernels as they were written against package
// math; the tests pin the agreement and confine the exception to inputs
// with a NaN coordinate, where neither answer means anything.

func oracleUnion(r, s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

func oracleIntersection(r, s Rect) Rect {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

func oracleDist(r, s Rect) float64 {
	if r.IsEmpty() || s.IsEmpty() {
		return math.Inf(1)
	}
	dx := math.Max(0, math.Max(s.MinX-r.MaxX, r.MinX-s.MaxX))
	dy := math.Max(0, math.Max(s.MinY-r.MaxY, r.MinY-s.MaxY))
	if dx == 0 {
		return dy
	}
	if dy == 0 {
		return dx
	}
	return math.Hypot(dx, dy)
}

func oracleSegmentBounds(s Segment) Rect {
	return Rect{
		MinX: math.Min(s.A.X, s.B.X),
		MinY: math.Min(s.A.Y, s.B.Y),
		MaxX: math.Max(s.A.X, s.B.X),
		MaxY: math.Max(s.A.Y, s.B.Y),
	}
}

// sameBits reports whether a and b are the same float64 bit for bit —
// so +0 and -0 differ — except that any two NaNs match: NaN payloads are
// part of neither contract (math.Max answers its canonical NaN, the
// builtin one of its operands, and Inf-Inf makes a third).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameRectBits(a, b Rect) bool {
	return sameBits(a.MinX, b.MinX) && sameBits(a.MinY, b.MinY) &&
		sameBits(a.MaxX, b.MaxX) && sameBits(a.MaxY, b.MaxY)
}

var negZero = math.Copysign(0, -1)

// TestBuiltinMinMaxMatchesMath pins the scalar rules on every pair of
// special values: the builtins agree with package math everywhere but on
// an infinity paired with NaN.
func TestBuiltinMinMaxMatchesMath(t *testing.T) {
	specials := []float64{negZero, 0, math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 2.5}
	for _, x := range specials {
		for _, y := range specials {
			nan := math.IsNaN(x) || math.IsNaN(y)
			gotMin, wantMin := min(x, y), math.Min(x, y)
			if nan && math.IsInf(wantMin, -1) {
				wantMin = math.NaN()
			}
			if !sameBits(gotMin, wantMin) {
				t.Errorf("min(%v, %v) = %v, want %v", x, y, gotMin, wantMin)
			}
			gotMax, wantMax := max(x, y), math.Max(x, y)
			if nan && math.IsInf(wantMax, 1) {
				wantMax = math.NaN()
			}
			if !sameBits(gotMax, wantMax) {
				t.Errorf("max(%v, %v) = %v, want %v", x, y, gotMax, wantMax)
			}
		}
	}
	// The signed-zero rules, spelled out: min prefers -0 and max +0, in
	// either argument order.
	u := Rect{0, negZero, 0, negZero}.Union(Rect{negZero, 0, negZero, 0})
	if math.Float64bits(u.MinX) != math.Float64bits(negZero) || math.Float64bits(u.MinY) != math.Float64bits(negZero) ||
		math.Float64bits(u.MaxX) != 0 || math.Float64bits(u.MaxY) != 0 {
		t.Errorf("union of ±0 rectangles = %v, want min -0 and max +0", u)
	}
}

// TestRectKernelsMatchMathOracle compares Rect.Union, Intersection, Dist
// and Segment.Bounds bit for bit with their math.Min/math.Max oracles on
// rectangles and segments drawn from ±0, ±Inf, NaN and repeating finite
// values. Half the draws take infinities, the other half NaN, so no
// infinity meets a NaN.
func TestRectKernelsMatchMathOracle(t *testing.T) {
	withInf := []float64{negZero, 0, math.Inf(1), math.Inf(-1), 1, -1, 2.5}
	withNaN := []float64{negZero, 0, math.NaN(), 1, -1, 2.5}
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 200_000; i++ {
		vals := withInf
		if i%2 == 1 {
			vals = withNaN
		}
		pick := func() float64 { return vals[rng.Intn(len(vals))] }
		r := Rect{pick(), pick(), pick(), pick()}
		s := Rect{pick(), pick(), pick(), pick()}
		if got, want := r.Union(s), oracleUnion(r, s); !sameRectBits(got, want) {
			t.Fatalf("%v.Union(%v) = %v, math gives %v", r, s, got, want)
		}
		if got, want := r.Intersection(s), oracleIntersection(r, s); !sameRectBits(got, want) {
			t.Fatalf("%v.Intersection(%v) = %v, math gives %v", r, s, got, want)
		}
		if got, want := r.Dist(s), oracleDist(r, s); !sameBits(got, want) {
			t.Fatalf("%v.Dist(%v) = %v, math gives %v", r, s, got, want)
		}
		seg := Segment{Point{pick(), pick()}, Point{pick(), pick()}}
		if got, want := seg.Bounds(), oracleSegmentBounds(seg); !sameRectBits(got, want) {
			t.Fatalf("%v.Bounds() = %v, math gives %v", seg, got, want)
		}
	}
}
