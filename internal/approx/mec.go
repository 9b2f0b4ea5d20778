package approx

import (
	"container/heap"
	"math"

	"spatialjoin/internal/geom"
)

// maxEnclosedCircle returns the maximum enclosed circle (MEC) of p: the
// largest circle contained in the closed polygonal region, i.e. the circle
// centered at the pole of inaccessibility with radius equal to the
// distance to the boundary.
//
// The paper computes the MEC from the Voronoi diagram of the polygon
// edges; this implementation substitutes a quadtree refinement of the
// signed boundary distance (the "polylabel" algorithm), which converges to
// the same circle: both find the interior point maximizing the distance to
// the boundary. The search stops when the optimal radius is bracketed
// within precision·diameter (precision defaults to 1e-3 when ≤ 0). The
// returned circle is shrunk by the bracketing error so it provably lies
// inside the polygon, keeping the approximation progressive.
func maxEnclosedCircle(p *geom.Polygon, precision float64) Circle {
	if precision <= 0 {
		precision = 1e-3
	}
	b := p.Bounds()
	size := math.Max(b.Width(), b.Height())
	if size == 0 {
		return Circle{C: geom.Point{X: b.MinX, Y: b.MinY}}
	}
	eps := precision * size

	var edges []geom.Segment
	edges = p.Edges(edges)
	dist := func(pt geom.Point) float64 {
		d := math.Inf(1)
		for _, e := range edges {
			if dd := e.DistToPoint(pt); dd < d {
				d = dd
			}
		}
		if !p.ContainsPoint(pt) {
			return -d
		}
		return d
	}

	h := &cellHeap{}
	heap.Init(h)
	// Seed with a grid of cells covering the bounding box.
	cell0 := math.Min(b.Width(), b.Height())
	if cell0 == 0 {
		cell0 = size
	}
	for x := b.MinX; x < b.MaxX; x += cell0 {
		for y := b.MinY; y < b.MaxY; y += cell0 {
			heap.Push(h, newCell(geom.Point{X: x + cell0/2, Y: y + cell0/2}, cell0/2, dist))
		}
	}
	best := newCell(p.Bounds().Center(), 0, dist)
	if c := newCell(geom.Ring(p.Outer).Centroid(), 0, dist); c.d > best.d {
		best = c
	}
	for h.Len() > 0 {
		c := heap.Pop(h).(cell)
		if c.d > best.d {
			best = c
		}
		if c.max-best.d <= eps {
			continue // cannot beat the incumbent by more than eps
		}
		q := c.h / 2
		for _, off := range [4][2]float64{{-1, -1}, {1, -1}, {-1, 1}, {1, 1}} {
			heap.Push(h, newCell(geom.Point{X: c.c.X + off[0]*q, Y: c.c.Y + off[1]*q}, q, dist))
		}
	}
	r := best.d - eps // shrink by the bracketing error: provably enclosed
	if r < 0 {
		r = math.Max(0, best.d)
	}
	return Circle{C: best.c, R: r}
}

// cell is a quadtree cell of the pole-of-inaccessibility search.
type cell struct {
	c   geom.Point // center
	h   float64    // half size
	d   float64    // signed distance of the center to the boundary
	max float64    // upper bound of the distance anywhere in the cell
}

func newCell(c geom.Point, h float64, dist func(geom.Point) float64) cell {
	d := dist(c)
	return cell{c: c, h: h, d: d, max: d + h*math.Sqrt2}
}

// cellHeap is a max-heap on the cells' distance upper bound.
type cellHeap []cell

func (h cellHeap) Len() int            { return len(h) }
func (h cellHeap) Less(i, j int) bool  { return h[i].max > h[j].max }
func (h cellHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *cellHeap) Push(x interface{}) { *h = append(*h, x.(cell)) }
func (h *cellHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
