package geom_test

import (
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"testing"

	"spatialjoin/internal/data"
	. "spatialjoin/internal/geom"
	"spatialjoin/internal/loadgen"
)

// bruteDistToPoint is Polygon.DistToPoint as it stood before the kernels
// stopped materialising the edge list: the reference the ring-walking
// body must equal bit for bit.
func bruteDistToPoint(p *Polygon, q Point) float64 {
	if p.Bounds().ContainsPoint(q) && p.ContainsPoint(q) {
		return 0
	}
	var edges []Segment
	edges = p.Edges(edges)
	d := math.Inf(1)
	for _, e := range edges {
		if dd := e.DistToPoint(q); dd < d {
			d = dd
		}
	}
	return d
}

// bruteDistToRect is the former Polygon.DistToRect: every edge against
// all four sides, no pruning.
func bruteDistToRect(p *Polygon, r Rect) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	if r.Contains(p.Bounds()) {
		return 0
	}
	c := r.Corners()
	if p.Bounds().ContainsPoint(c[0]) && p.ContainsPoint(c[0]) {
		return 0
	}
	var edges []Segment
	edges = p.Edges(edges)
	d := math.Inf(1)
	for _, e := range edges {
		for i := 0; i < 4; i++ {
			if dd := e.DistToSegment(Segment{A: c[i], B: c[(i+1)%4]}); dd < d {
				d = dd
			}
		}
	}
	return d
}

func checkPoint(t *testing.T, what string, p *Polygon, q Point) {
	t.Helper()
	if got, want := p.DistToPoint(q), bruteDistToPoint(p, q); got != want {
		t.Fatalf("%s: DistToPoint(%v) = %v, reference %v", what, q, got, want)
	}
}

func checkRect(t *testing.T, what string, p *Polygon, r Rect) {
	t.Helper()
	if got, want := p.DistToRect(r), bruteDistToRect(p, r); got != want {
		t.Fatalf("%s: DistToRect(%v) = %v, reference %v", what, r, got, want)
	}
}

func pointRect(q Point) Rect { return Rect{MinX: q.X, MinY: q.Y, MaxX: q.X, MaxY: q.Y} }

// star returns a star-shaped ring of n vertices around c.
func star(rng *rand.Rand, c Point, radius float64, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		ang := 2 * math.Pi * float64(i) / float64(n)
		r := radius * (0.4 + 0.6*rng.Float64())
		pts[i] = Point{X: c.X + r*math.Cos(ang), Y: c.Y + r*math.Sin(ang)}
	}
	return pts
}

// roughen makes a ring adversarial without moving its boundary much:
// duplicate vertices, collinear runs along an edge, and zero-width spikes
// that leave a vertex and come back to it.
func roughen(rng *rand.Rand, ring []Point) []Point {
	var out []Point
	for i, a := range ring {
		b := ring[(i+1)%len(ring)]
		out = append(out, a)
		switch rng.Intn(5) {
		case 0:
			out = append(out, a)
		case 1:
			for _, f := range []float64{0.25, 0.5, 0.75} {
				out = append(out, Point{X: a.X + f*(b.X-a.X), Y: a.Y + f*(b.Y-a.Y)})
			}
		case 2:
			out = append(out, Point{X: a.X + 0.3*(rng.Float64()-0.5), Y: a.Y + 0.3*(rng.Float64()-0.5)}, a)
		}
	}
	return out
}

// adversarialPolygons returns generated polygons with and without holes,
// roughened and not, axis-parallel ones whose edges run along window
// sides, and one whose far edge Segment.Intersects takes to cross a side
// it merely runs along.
func adversarialPolygons(rng *rand.Rand) []*Polygon {
	var polys []*Polygon
	for i := 0; i < 60; i++ {
		c := Point{X: 4 * rng.Float64(), Y: 4 * rng.Float64()}
		outer := star(rng, c, 0.5+rng.Float64(), 5+rng.Intn(40))
		var holes [][]Point
		if i%2 == 0 {
			holes = append(holes, star(rng, c, 0.15, 4+rng.Intn(8)))
		}
		if i%3 == 0 {
			outer = roughen(rng, outer)
			for h := range holes {
				holes[h] = roughen(rng, holes[h])
			}
		}
		polys = append(polys, NewPolygon(outer, holes...))
	}
	polys = append(polys,
		NewPolygon([]Point{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 3, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 3}, {X: 0, Y: 3}}),
		NewPolygon([]Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}},
			[]Point{{X: 1, Y: 1}, {X: 3, Y: 1}, {X: 3, Y: 3}, {X: 1, Y: 3}}),
		// Against [1,2]×[0,1]: the short edge is the nearest (≈ 0.0995), and
		// the long one, 0.1 away, lies within Eps of the line y = 0.
		&Polygon{Outer: Ring{{X: 0.9, Y: 1e-13}, {X: 0.95, Y: -0.5}, {X: 0, Y: -3e-12}}},
	)
	return polys
}

// TestDistKernelsMatchReference holds the allocation-free kernels to the
// edge-list bodies they replaced with == on every float: the bench oracle
// and the /nearest bodies compare distances exactly.
func TestDistKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	polys := adversarialPolygons(rng)
	for pi, p := range polys {
		what := "polygon " + strconv.Itoa(pi)
		b := p.Bounds()
		var targets []Point
		for _, ring := range append([]Ring{p.Outer}, p.Holes...) {
			c := ring.Centroid() // in the hole, for a hole ring
			targets = append(targets, c)
			for i := range ring {
				e := ring.Edge(i)
				targets = append(targets, e.A, Point{X: (e.A.X + e.B.X) / 2, Y: (e.A.Y + e.B.Y) / 2})
			}
		}
		for i := 0; i < 40; i++ {
			targets = append(targets, Point{X: b.MinX - 1 + rng.Float64()*(b.Width()+2), Y: b.MinY - 1 + rng.Float64()*(b.Height()+2)})
		}
		for _, q := range targets {
			checkPoint(t, what, p, q)
			checkRect(t, what, p, pointRect(q))
			// Segments and windows hanging off the target, so that their
			// sides run through vertices and along axis-parallel edges.
			for _, s := range []float64{1e-9, 0.05, 0.7} {
				checkRect(t, what, p, Rect{MinX: q.X, MinY: q.Y, MaxX: q.X + s, MaxY: q.Y})
				checkRect(t, what, p, Rect{MinX: q.X, MinY: q.Y - s, MaxX: q.X, MaxY: q.Y})
				checkRect(t, what, p, Rect{MinX: q.X - s, MinY: q.Y, MaxX: q.X, MaxY: q.Y + s})
				checkRect(t, what, p, Rect{MinX: q.X - s/3, MinY: q.Y - s, MaxX: q.X + s, MaxY: q.Y + s/2})
			}
		}
		for _, h := range p.Holes {
			c := h.Centroid()
			checkRect(t, what+" (in hole)", p, Rect{MinX: c.X - 0.01, MinY: c.Y - 0.01, MaxX: c.X + 0.01, MaxY: c.Y + 0.01})
		}
		checkRect(t, what+" (containing)", p, b.Expand(0.5))
		checkRect(t, what+" (its MBR)", p, b)
		checkRect(t, what+" (empty)", p, EmptyRect())
	}
	for _, r := range []Rect{{MinX: 1, MinY: 0, MaxX: 2, MaxY: 1}, {MinX: 1, MinY: -1, MaxX: 2, MaxY: 0}} {
		checkRect(t, "edge along a side's line", polys[len(polys)-1], r)
	}
}

// flightTargets returns the geometry of the single-relation queries of
// the load harness's flight: a rectangle, a point for /point and /nearest.
func flightTargets(t *testing.T, spec loadgen.Spec) []Rect {
	var out []Rect
	for _, q := range loadgen.NewFlight(spec).Queries {
		if q.Class == "join" {
			continue
		}
		u, err := url.Parse(q.Path)
		if err != nil {
			t.Fatal(err)
		}
		num := func(key string) float64 {
			v, err := strconv.ParseFloat(u.Query().Get(key), 64)
			if err != nil {
				t.Fatalf("%s: %s: %v", q.Name, key, err)
			}
			return v
		}
		if q.Class == "window" {
			out = append(out, Rect{MinX: num("minx"), MinY: num("miny"), MaxX: num("maxx"), MaxY: num("maxy")})
		} else {
			out = append(out, pointRect(Point{X: num("x"), Y: num("y")}))
		}
	}
	return out
}

// sfPolygons returns the R side of the SF 0.01 dataset.
func sfPolygons(t testing.TB) []*Polygon {
	spec, err := loadgen.For(0.01)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := spec.MapConfig("R")
	if err != nil {
		t.Fatal(err)
	}
	var polys []*Polygon
	if _, err := data.StreamMap(mc, func(_ int32, p *Polygon) error {
		polys = append(polys, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return polys
}

// TestDistKernelsMatchReferenceOnFlight crosses every object of the SF
// 0.01 dataset with the eight query shapes the load harness sends.
func TestDistKernelsMatchReferenceOnFlight(t *testing.T) {
	spec, _ := loadgen.For(0.01)
	targets := flightTargets(t, spec)
	if len(targets) != 8 {
		t.Fatalf("flight has %d single-relation queries, want 8", len(targets))
	}
	for id, p := range sfPolygons(t) {
		what := "object " + strconv.Itoa(id)
		for _, r := range targets {
			checkRect(t, what, p, r)
			checkPoint(t, what, p, Point{X: r.MinX, Y: r.MinY})
			checkPoint(t, what, p, r.Center())
		}
	}
}

// TestDistKernelsAllocFree pins what took 76 % of the bytes of a
// single-relation query workload off the distance path: no kernel
// materialises an edge list.
func TestDistKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := Point{X: 1, Y: 1}
	p := NewPolygon(star(rng, c, 1, 40), star(rng, c, 0.2, 8))
	o := NewPolygon(star(rng, Point{X: 4, Y: 1}, 1, 40))
	for name, run := range map[string]func(){
		"DistToPoint":   func() { p.DistToPoint(Point{X: 3, Y: 3}) },
		"DistToRect":    func() { p.DistToRect(Rect{MinX: 3, MinY: 3, MaxX: 4, MaxY: 4}) },
		"DistToPolygon": func() { p.DistToPolygon(o) },
	} {
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}

var sinkDist float64

// benchObject is the SF 0.01 object the kernel benchmarks run on: one
// with a hole, at the dataset's average complexity.
func benchObject(b *testing.B) *Polygon {
	for _, p := range sfPolygons(b) {
		if len(p.Holes) > 0 && p.NumVertices() >= loadgen.SFVerts {
			return p
		}
	}
	b.Fatal("no SF 0.01 object with a hole")
	return nil
}

func BenchmarkDistToPoint(b *testing.B) {
	p := benchObject(b)
	bb := p.Bounds()
	q := Point{X: bb.MaxX + bb.Width(), Y: bb.MaxY + bb.Height()}
	b.ReportAllocs()
	for b.Loop() {
		sinkDist = p.DistToPoint(q)
	}
}

func BenchmarkDistToRect(b *testing.B) {
	p := benchObject(b)
	bb := p.Bounds()
	q := Point{X: bb.MaxX + bb.Width(), Y: bb.MaxY + bb.Height()}
	for _, tc := range []struct {
		name string
		r    Rect
	}{
		{"window", Rect{MinX: q.X, MinY: q.Y, MaxX: q.X + bb.Width(), MaxY: q.Y + bb.Height()}},
		{"point", pointRect(q)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkDist = p.DistToRect(tc.r)
			}
		})
	}
}
