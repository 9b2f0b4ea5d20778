package approx

import (
	"math"

	"spatialjoin/internal/convex"
	"spatialjoin/internal/geom"
)

// minBoundingEllipse returns a minimum bounding ellipse (MBE) of pts.
//
// The paper uses Welzl's randomized algorithm [Wel 91]; this implementation
// substitutes Khachiyan's minimum-volume-enclosing-ellipsoid iteration on
// the convex hull vertices, which converges to the same ellipse within
// tolerance (see DESIGN.md, substitutions). The result is inflated so that
// it provably contains every input point, keeping the approximation
// conservative under floating-point rounding.
func minBoundingEllipse(pts []geom.Point) Ellipse {
	hull := convex.Hull(pts)
	switch len(hull) {
	case 0:
		return Ellipse{}
	case 1:
		return Ellipse{C: hull[0]}
	case 2:
		// Degenerate: a segment. Return the thinnest ellipse around it.
		c := geom.Point{X: (hull[0].X + hull[1].X) / 2, Y: (hull[0].Y + hull[1].Y) / 2}
		d := hull[1].Sub(hull[0]).Scale(0.5)
		return Ellipse{C: c, B00: d.X, B10: d.Y, B01: -d.Y * 1e-9, B11: d.X * 1e-9}
	}

	n := len(hull)
	u := make([]float64, n)
	for i := range u {
		u[i] = 1 / float64(n)
	}
	const d = 2 // dimension
	const tol = 1e-9
	for iter := 0; iter < 2000; iter++ {
		// M = Σ u_i q_i q_iᵀ with q_i = (x_i, y_i, 1); find the point with
		// maximal Mahalanobis-like weight q_iᵀ M⁻¹ q_i.
		var m [3][3]float64
		for i, p := range hull {
			q := [3]float64{p.X, p.Y, 1}
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					m[r][c] += u[i] * q[r] * q[c]
				}
			}
		}
		inv, ok := invert3x3(m)
		if !ok {
			break
		}
		maxVal := math.Inf(-1)
		maxIdx := 0
		for i, p := range hull {
			q := [3]float64{p.X, p.Y, 1}
			var v float64
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					v += q[r] * inv[r][c] * q[c]
				}
			}
			if v > maxVal {
				maxVal = v
				maxIdx = i
			}
		}
		if maxVal-float64(d)-1 < tol {
			break
		}
		step := (maxVal - float64(d) - 1) / (float64(d+1) * (maxVal - 1))
		for i := range u {
			u[i] *= 1 - step
		}
		u[maxIdx] += step
	}

	// Center c = Σ u_i p_i; shape A = (1/d)·(Σ u_i p_i p_iᵀ − c cᵀ)⁻¹ so the
	// ellipse is {x : (x−c)ᵀ A (x−c) ≤ 1}.
	var cx, cy float64
	for i, p := range hull {
		cx += u[i] * p.X
		cy += u[i] * p.Y
	}
	var sxx, sxy, syy float64
	for i, p := range hull {
		sxx += u[i] * p.X * p.X
		sxy += u[i] * p.X * p.Y
		syy += u[i] * p.Y * p.Y
	}
	sxx -= cx * cx
	sxy -= cx * cy
	syy -= cy * cy
	det := sxx*syy - sxy*sxy
	if det <= geom.Eps*geom.Eps {
		// Nearly degenerate: fall back to the bounding-circle ellipse.
		mbc := minBoundingCircle(pts)
		return Ellipse{C: mbc.C, B00: mbc.R, B11: mbc.R}
	}
	// A = (1/d)·S⁻¹ where S is the covariance-like matrix above.
	a00 := syy / det / d
	a01 := -sxy / det / d
	a11 := sxx / det / d
	center := geom.Point{X: cx, Y: cy}

	// Inflate so every point satisfies (p−c)ᵀ A (p−c) ≤ 1.
	maxQ := 0.0
	for _, p := range pts {
		dx := p.X - center.X
		dy := p.Y - center.Y
		q := a00*dx*dx + 2*a01*dx*dy + a11*dy*dy
		if q > maxQ {
			maxQ = q
		}
	}
	if maxQ > 1 {
		a00 /= maxQ
		a01 /= maxQ
		a11 /= maxQ
	}

	b00, b01, b10, b11 := sqrtmInverse2x2(a00, a01, a11)
	return Ellipse{C: center, B00: b00, B01: b01, B10: b10, B11: b11}
}

// invert3x3 inverts a 3×3 matrix by cofactor expansion.
func invert3x3(m [3][3]float64) ([3][3]float64, bool) {
	det := m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
	if math.Abs(det) < 1e-300 {
		return [3][3]float64{}, false
	}
	var inv [3][3]float64
	inv[0][0] = (m[1][1]*m[2][2] - m[1][2]*m[2][1]) / det
	inv[0][1] = (m[0][2]*m[2][1] - m[0][1]*m[2][2]) / det
	inv[0][2] = (m[0][1]*m[1][2] - m[0][2]*m[1][1]) / det
	inv[1][0] = (m[1][2]*m[2][0] - m[1][0]*m[2][2]) / det
	inv[1][1] = (m[0][0]*m[2][2] - m[0][2]*m[2][0]) / det
	inv[1][2] = (m[0][2]*m[1][0] - m[0][0]*m[1][2]) / det
	inv[2][0] = (m[1][0]*m[2][1] - m[1][1]*m[2][0]) / det
	inv[2][1] = (m[0][1]*m[2][0] - m[0][0]*m[2][1]) / det
	inv[2][2] = (m[0][0]*m[1][1] - m[0][1]*m[1][0]) / det
	return inv, true
}

// sqrtmInverse2x2 returns B = A^{-1/2} for the symmetric positive-definite
// matrix A = [[a00 a01],[a01 a11]], via its eigendecomposition. B maps the
// unit disk onto the ellipse {x : xᵀ A x ≤ 1}.
func sqrtmInverse2x2(a00, a01, a11 float64) (b00, b01, b10, b11 float64) {
	// Eigenvalues of the symmetric 2×2 matrix.
	tr := a00 + a11
	det := a00*a11 - a01*a01
	disc := math.Sqrt(math.Max(0, tr*tr/4-det))
	l1 := tr/2 + disc
	l2 := tr/2 - disc
	// Eigenvectors.
	var v1, v2 geom.Point
	if math.Abs(a01) > geom.Eps {
		v1 = geom.Point{X: l1 - a11, Y: a01}
		v2 = geom.Point{X: l2 - a11, Y: a01}
	} else {
		// Diagonal matrix: eigenpairs are (a00, e_x) and (a11, e_y).
		v1 = geom.Point{X: 1, Y: 0}
		v2 = geom.Point{X: 0, Y: 1}
		l1, l2 = a00, a11
	}
	n1 := v1.Norm()
	n2 := v2.Norm()
	if n1 < geom.Eps || n2 < geom.Eps {
		v1, v2 = geom.Point{X: 1}, geom.Point{Y: 1}
		n1, n2 = 1, 1
	}
	v1 = v1.Scale(1 / n1)
	v2 = v2.Scale(1 / n2)
	s1 := 1 / math.Sqrt(math.Max(l1, 1e-300))
	s2 := 1 / math.Sqrt(math.Max(l2, 1e-300))
	// B = V diag(s) Vᵀ.
	b00 = s1*v1.X*v1.X + s2*v2.X*v2.X
	b01 = s1*v1.X*v1.Y + s2*v2.X*v2.Y
	b10 = b01
	b11 = s1*v1.Y*v1.Y + s2*v2.Y*v2.Y
	return
}
