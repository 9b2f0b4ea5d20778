package approx

import (
	"math"
	"math/rand"

	"spatialjoin/internal/geom"
)

// minBoundingCircle returns the minimum bounding circle (MBC) of pts using
// Welzl's randomized move-to-front algorithm [Wel 91], which the paper
// also uses; expected linear time. The returned circle contains every
// input point (verified and, if necessary, inflated by a few ULPs to
// absorb floating-point rounding, keeping the approximation conservative).
func minBoundingCircle(pts []geom.Point) Circle {
	if len(pts) == 0 {
		return Circle{}
	}
	shuffled := make([]geom.Point, len(pts))
	copy(shuffled, pts)
	// Deterministic shuffle: the algorithm's expected-linear bound needs a
	// random order, but reproducible experiments need a fixed seed.
	rng := rand.New(rand.NewSource(0x5ee9))
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	c := circleFrom1(shuffled[0])
	for i := 1; i < len(shuffled); i++ {
		if c.containsLoose(shuffled[i]) {
			continue
		}
		c = circleWithOnePoint(shuffled[:i], shuffled[i])
	}
	// Guarantee conservativeness under rounding.
	for _, p := range pts {
		if d := c.C.Dist(p); d > c.R {
			c.R = d
		}
	}
	return c
}

// circleWithOnePoint returns the minimum circle over pts that has q on its
// boundary.
func circleWithOnePoint(pts []geom.Point, q geom.Point) Circle {
	c := circleFrom1(q)
	for i, p := range pts {
		if c.containsLoose(p) {
			continue
		}
		c = circleWithTwoPoints(pts[:i], q, p)
	}
	return c
}

// circleWithTwoPoints returns the minimum circle over pts that has q1 and
// q2 on its boundary.
func circleWithTwoPoints(pts []geom.Point, q1, q2 geom.Point) Circle {
	c := circleFrom2(q1, q2)
	for _, p := range pts {
		if c.containsLoose(p) {
			continue
		}
		c = circleFrom3(q1, q2, p)
	}
	return c
}

func (c Circle) containsLoose(p geom.Point) bool {
	return c.C.Dist(p) <= c.R*(1+1e-12)+1e-12
}

func circleFrom1(p geom.Point) Circle { return Circle{C: p} }

func circleFrom2(a, b geom.Point) Circle {
	c := geom.Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
	return Circle{C: c, R: c.Dist(a)}
}

// circleFrom3 returns the circumcircle of a, b, c, falling back to the
// best two-point circle when the points are (near-)collinear.
func circleFrom3(a, b, c geom.Point) Circle {
	ax, ay := b.X-a.X, b.Y-a.Y
	bx, by := c.X-a.X, c.Y-a.Y
	d := 2 * (ax*by - ay*bx)
	if math.Abs(d) < geom.Eps {
		// Collinear: the diameter is the farthest pair.
		best := circleFrom2(a, b)
		if alt := circleFrom2(a, c); alt.R > best.R {
			best = alt
		}
		if alt := circleFrom2(b, c); alt.R > best.R {
			best = alt
		}
		return best
	}
	ux := (by*(ax*ax+ay*ay) - ay*(bx*bx+by*by)) / d
	uy := (ax*(bx*bx+by*by) - bx*(ax*ax+ay*ay)) / d
	center := geom.Point{X: a.X + ux, Y: a.Y + uy}
	return Circle{C: center, R: center.Dist(a)}
}
