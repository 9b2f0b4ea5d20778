// Package geom provides the two-dimensional geometry kernel underlying the
// multi-step spatial join processor: points, rectangles, line segments,
// rings and polygons with holes, together with the exact predicates
// (orientation, segment intersection, point location, region intersection)
// that every higher layer builds on.
//
// Conventions
//
//   - Coordinates are float64. The kernel uses a small absolute tolerance
//     (Eps) only where a strict comparison would make boundary cases
//     unstable; all set predicates treat geometries as closed point sets,
//     so touching boundaries count as intersecting. This matches the
//     paper's intersection-join semantics, where "obj_A ∩ obj_B ≠ ∅" is
//     evaluated on closed polygonal regions.
//   - Rings are stored as open vertex lists (the closing edge from the
//     last vertex back to the first is implicit) and are oriented
//     counterclockwise for outer boundaries and clockwise for holes;
//     constructors normalize orientation.
package geom

import "math"

// Eps is the absolute tolerance used by predicates that would otherwise be
// unstable under floating-point rounding (e.g. collinearity tests). It is
// deliberately tiny: the kernel is not a robust-arithmetic kernel, but the
// data generator keeps coordinates well conditioned (unit data space,
// no near-degenerate inputs), which is the same regime as the paper's
// cartographic data.
const Eps = 1e-12

// Point is a location in the two-dimensional data space.
type Point struct {
	X, Y float64
}

// Add returns p translated by the vector q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s about the origin.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q interpreted as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// CrossVec returns the z component of the cross product of p and q
// interpreted as vectors.
func (p Point) CrossVec(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p interpreted as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q — the
// form the threshold kernels compare with ε², so that no decision pays
// for a square root.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Rotate returns p rotated by angle rad (radians) about the origin.
func (p Point) Rotate(rad float64) Point {
	s, c := math.Sincos(rad)
	return Point{p.X*c - p.Y*s, p.X*s + p.Y*c}
}

// RotateAround returns p rotated by angle rad about the pivot c.
func (p Point) RotateAround(rad float64, c Point) Point {
	return p.Sub(c).Rotate(rad).Add(c)
}

// Cross returns the z component of (a-o) × (b-o): positive when the turn
// o→a→b is counterclockwise, negative when clockwise, and zero when the
// three points are collinear.
func Cross(o, a, b Point) float64 {
	return (a.X-o.X)*(b.Y-o.Y) - (a.Y-o.Y)*(b.X-o.X)
}

// Orientation classifies the turn o→a→b as counterclockwise (+1),
// clockwise (-1) or collinear (0) using the Eps tolerance.
func Orientation(o, a, b Point) int {
	c := Cross(o, a, b)
	switch {
	case c > Eps:
		return 1
	case c < -Eps:
		return -1
	default:
		return 0
	}
}
