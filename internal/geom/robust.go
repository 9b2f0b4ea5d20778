package geom

import "math/big"

// orientationErrBound is a conservative forward-error bound factor for the
// floating-point orientation determinant: if |det| exceeds
// orientationErrBound · (|t1| + |t2|), the sign of the float result is the
// exact sign (t1, t2 are the two products of the 2×2 determinant). The
// factor is a few ulps above the textbook 3u bound to stay safely
// conservative.
const orientationErrBound = 1.0e-15

// OrientationAdaptive classifies the turn o→a→b exactly: it first computes
// the orientation determinant in float64 and accepts the sign when the
// result provably dominates its rounding error; otherwise it recomputes
// the determinant in arbitrary-precision arithmetic. The result is the
// exact sign of the underlying real determinant of the given float64
// coordinates (+1 counterclockwise, −1 clockwise, 0 exactly collinear).
//
// The fast-path kernel (Orientation) with its epsilon tolerance is what
// the join processor uses — the paper's cartographic regime keeps
// coordinates well conditioned. OrientationAdaptive hardens the kernel for
// adversarial inputs (collinear grids, near-degenerate slivers) at ≈ 2×
// the cost in the common case.
func OrientationAdaptive(o, a, b Point) int {
	ax := a.X - o.X
	ay := a.Y - o.Y
	bx := b.X - o.X
	by := b.Y - o.Y
	t1 := ax * by
	t2 := ay * bx
	det := t1 - t2
	absSum := abs(t1) + abs(t2)
	if det > orientationErrBound*absSum {
		return 1
	}
	if det < -orientationErrBound*absSum {
		return -1
	}
	if absSum == 0 {
		return 0 // all terms exactly zero
	}
	return orientationBig(o, a, b)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// orientationBig evaluates the determinant exactly with big.Rat: float64
// inputs are binary rationals, so every operation below is exact
// (including the coordinate differences, which would round in float64).
func orientationBig(o, a, b Point) int {
	ox := new(big.Rat).SetFloat64(o.X)
	oy := new(big.Rat).SetFloat64(o.Y)
	axr := new(big.Rat).Sub(new(big.Rat).SetFloat64(a.X), ox)
	ayr := new(big.Rat).Sub(new(big.Rat).SetFloat64(a.Y), oy)
	bxr := new(big.Rat).Sub(new(big.Rat).SetFloat64(b.X), ox)
	byr := new(big.Rat).Sub(new(big.Rat).SetFloat64(b.Y), oy)
	t1 := new(big.Rat).Mul(axr, byr)
	t2 := new(big.Rat).Mul(ayr, bxr)
	return t1.Cmp(t2)
}
