package geom

import "math"

// Rect is an axis-parallel rectangle, the minimum bounding rectangle (MBR)
// used as the geometric key of the R*-tree and as the cheapest conservative
// approximation of a spatial object. A Rect is a closed region; a rectangle
// with MinX == MaxX or MinY == MaxY is a degenerate (line or point) but
// still valid rectangle, which occurs for horizontal or vertical segments.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect returns the identity element of Union: a rectangle that
// contains nothing and unions to its argument.
func EmptyRect() Rect {
	return Rect{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
}

// RectFromPoints returns the minimum bounding rectangle of pts.
// It returns EmptyRect() when pts is empty.
func RectFromPoints(pts ...Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.ExtendPoint(p)
	}
	return r
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Width returns the x extension of r, or 0 for an empty rectangle.
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the y extension of r, or 0 for an empty rectangle.
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the area of r (0 for degenerate and empty rectangles).
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Margin returns half the perimeter of r, the R*-tree split goodness
// criterion from [BKSS 90].
func (r Rect) Margin() float64 { return r.Width() + r.Height() }

// Center returns the center point of r.
func (r Rect) Center() Point { return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2} }

// Corners returns the four corner points of r in counterclockwise order.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY}, {r.MaxX, r.MinY}, {r.MaxX, r.MaxY}, {r.MinX, r.MaxY},
	}
}

// ContainsPoint reports whether p lies in the closed region r.
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Contains reports whether s lies entirely inside the closed region r.
// An empty s is contained in everything.
func (r Rect) Contains(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether the closed regions r and s share at least one
// point. Touching edges count as intersecting, mirroring the closed-region
// join predicate.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersection returns the common region of r and s, which is empty when
// they do not intersect.
func (r Rect) Intersection(s Rect) Rect {
	out := Rect{
		MinX: max(r.MinX, s.MinX),
		MinY: max(r.MinY, s.MinY),
		MaxX: min(r.MaxX, s.MaxX),
		MaxY: min(r.MaxY, s.MaxY),
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// Union returns the minimum bounding rectangle of r ∪ s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: min(r.MinX, s.MinX),
		MinY: min(r.MinY, s.MinY),
		MaxX: max(r.MaxX, s.MaxX),
		MaxY: max(r.MaxY, s.MaxY),
	}
}

// ExtendPoint returns the minimum bounding rectangle of r ∪ {p}.
func (r Rect) ExtendPoint(p Point) Rect {
	return r.Union(Rect{p.X, p.Y, p.X, p.Y})
}

// Enlargement returns the area increase of r needed to include s, the
// Guttman ChooseSubtree criterion.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// OverlapArea returns the area of the common region of r and s.
func (r Rect) OverlapArea(s Rect) float64 { return r.Intersection(s).Area() }

// Dist returns the Euclidean distance between the closed regions r and s:
// 0 when they intersect, +Inf when either is empty. Because the MBR is a
// superset of its object, the MBR distance is a lower bound of the region
// distance — the step 1 pruning measure of the within-distance join.
func (r Rect) Dist(s Rect) float64 {
	if r.IsEmpty() || s.IsEmpty() {
		return math.Inf(1)
	}
	dx := max(0, s.MinX-r.MaxX, r.MinX-s.MaxX)
	dy := max(0, s.MinY-r.MaxY, r.MinY-s.MaxY)
	if dx == 0 {
		return dy
	}
	if dy == 0 {
		return dx
	}
	return math.Hypot(dx, dy)
}

// Dist2 returns the squared Euclidean distance between the closed regions
// r and s, +Inf when either is empty: Dist without the square root, for
// callers that compare against a squared threshold.
func (r Rect) Dist2(s Rect) float64 {
	if r.IsEmpty() || s.IsEmpty() {
		return math.Inf(1)
	}
	dx := max(0, s.MinX-r.MaxX, r.MinX-s.MaxX)
	dy := max(0, s.MinY-r.MaxY, r.MinY-s.MaxY)
	return dx*dx + dy*dy
}

// Translate returns r shifted by (dx, dy).
func (r Rect) Translate(dx, dy float64) Rect {
	if r.IsEmpty() {
		return r
	}
	return Rect{r.MinX + dx, r.MinY + dy, r.MaxX + dx, r.MaxY + dy}
}

// Expand returns r grown by d on every side (shrunk for negative d; the
// result is empty if the shrink eliminates the region).
func (r Rect) Expand(d float64) Rect {
	if r.IsEmpty() {
		return r
	}
	out := Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}
