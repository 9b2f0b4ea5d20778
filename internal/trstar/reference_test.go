package trstar

import (
	"math"
	"math/rand"
	"sort"

	"spatialjoin/internal/decomp"
	"spatialjoin/internal/geom"
)

// This file keeps the TR*-tree build as it was before it ran on reused
// scratch — the trapezoid sweep, the R*-tree insertion with its per-call
// queue, maps and slices, and the rtreecore node algorithms over
// sort.Slice — so that TestBuildMatchesReference can pin the build to it
// tree for tree.

// referenceTrapezoidize is decomp.Trapezoidize over sort.Slice and
// sort.Float64s, growing its output by append.
func referenceTrapezoidize(p *geom.Polygon) []decomp.Trapezoid {
	var edges []geom.Segment
	edges = p.Edges(edges)

	// Distinct event x coordinates.
	xs := make([]float64, 0, len(edges))
	for _, e := range edges {
		xs = append(xs, e.A.X)
	}
	sort.Float64s(xs)
	xs = referenceDedupFloats(xs)
	if len(xs) < 2 {
		return nil
	}

	// Sort non-vertical edges by their smaller x so the sweep can add them
	// as slabs open.
	type swEdge struct {
		s          geom.Segment
		minX, maxX float64
	}
	sw := make([]swEdge, 0, len(edges))
	for _, e := range edges {
		minX := math.Min(e.A.X, e.B.X)
		maxX := math.Max(e.A.X, e.B.X)
		if maxX-minX < geom.Eps {
			continue // vertical edges never span a slab
		}
		sw = append(sw, swEdge{s: e, minX: minX, maxX: maxX})
	}
	sort.Slice(sw, func(i, j int) bool { return sw[i].minX < sw[j].minX })

	var out []decomp.Trapezoid
	active := make([]swEdge, 0, 16)
	next := 0
	type span struct {
		yl, yr float64
		e      swEdge
	}
	spans := make([]span, 0, 16)
	for i := 0; i+1 < len(xs); i++ {
		xl, xr := xs[i], xs[i+1]
		// Admit edges opening at or before xl.
		for next < len(sw) && sw[next].minX <= xl+geom.Eps {
			active = append(active, sw[next])
			next++
		}
		// Retire edges that ended.
		keep := active[:0]
		for _, e := range active {
			if e.maxX > xl+geom.Eps {
				keep = append(keep, e)
			}
		}
		active = keep

		spans = spans[:0]
		for _, e := range active {
			if e.minX <= xl+geom.Eps && e.maxX >= xr-geom.Eps {
				spans = append(spans, span{yl: e.s.YAt(xl), yr: e.s.YAt(xr), e: e})
			}
		}
		sort.Slice(spans, func(a, b int) bool {
			ma := spans[a].yl + spans[a].yr
			mb := spans[b].yl + spans[b].yr
			return ma < mb
		})
		for k := 0; k+1 < len(spans); k += 2 {
			lo := spans[k]
			hi := spans[k+1]
			t := decomp.Trapezoid{P: [4]geom.Point{
				{X: xl, Y: lo.yl},
				{X: xr, Y: lo.yr},
				{X: xr, Y: hi.yr},
				{X: xl, Y: hi.yl},
			}}
			if t.Area() > geom.Eps {
				out = append(out, t)
			}
		}
	}
	return out
}

func referenceDedupFloats(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x-out[len(out)-1] > geom.Eps {
			out = append(out, x)
		}
	}
	return out
}

// referenceNew is New with a fresh math/rand shuffle per tree and one
// queue, reinsertion map, rectangle slice and drop map per insertion.
func referenceNew(traps []decomp.Trapezoid, capacity int) *Tree {
	minFill := (capacity*2 + 4) / 5
	if minFill < 2 {
		minFill = 2
	}
	t := &Tree{
		root:     &node{leaf: true},
		capacity: capacity,
		minFill:  minFill,
		height:   1,
	}
	perm := make([]int, len(traps))
	for i := range perm {
		perm[i] = i
	}
	rng := rand.New(rand.NewSource(0x7257a2))
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for _, i := range perm {
		tr := traps[i]
		t.referenceInsert(entry{rect: tr.Bounds(), trap: tr}, 1)
		t.numTraps++
	}
	t.bounds = t.root.bounds()
	return t
}

func (t *Tree) referenceInsert(e entry, level int) {
	queue := []pendingEntry{{e: e, level: level}}
	reinserted := make(map[int]bool)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		split := t.referenceChooseAndInsert(t.root, t.height, p.e, p.level, reinserted, &queue)
		if split != nil {
			old := t.root
			t.root = &node{leaf: false, entries: []entry{
				{rect: old.bounds(), child: old},
				{rect: split.bounds(), child: split},
			}}
			t.height++
		}
	}
}

func (t *Tree) referenceChooseAndInsert(n *node, nodeLevel int, e entry, targetLevel int, reinserted map[int]bool, queue *[]pendingEntry) *node {
	if nodeLevel == targetLevel {
		n.entries = append(n.entries, e)
		return t.referenceOverflowTreatment(n, nodeLevel, reinserted, queue)
	}
	rects := make([]geom.Rect, len(n.entries))
	for i, c := range n.entries {
		rects[i] = c.rect
	}
	childrenAreLeaves := nodeLevel-1 == 1
	i := referenceChooseSubtree(rects, e.rect, childrenAreLeaves)
	child := n.entries[i].child
	split := t.referenceChooseAndInsert(child, nodeLevel-1, e, targetLevel, reinserted, queue)
	n.entries[i].rect = child.bounds()
	if split != nil {
		n.entries = append(n.entries, entry{rect: split.bounds(), child: split})
		return t.referenceOverflowTreatment(n, nodeLevel, reinserted, queue)
	}
	return nil
}

func (t *Tree) referenceOverflowTreatment(n *node, level int, reinserted map[int]bool, queue *[]pendingEntry) *node {
	if len(n.entries) <= t.capacity {
		return nil
	}
	if level != t.height && !reinserted[level] {
		reinserted[level] = true
		p := len(n.entries) * 3 / 10
		if p < 1 {
			p = 1
		}
		rects := make([]geom.Rect, len(n.entries))
		for i, e := range n.entries {
			rects[i] = e.rect
		}
		order := referenceReinsertOrder(rects, p)
		drop := make(map[int]bool, p)
		for _, i := range order {
			drop[i] = true
			*queue = append(*queue, pendingEntry{e: n.entries[i], level: level})
		}
		kept := n.entries[:0]
		for i, e := range n.entries {
			if !drop[i] {
				kept = append(kept, e)
			}
		}
		n.entries = kept
		return nil
	}
	return t.referenceSplit(n)
}

func (t *Tree) referenceSplit(n *node) *node {
	rects := make([]geom.Rect, len(n.entries))
	for i, e := range n.entries {
		rects[i] = e.rect
	}
	g1, g2 := referenceSplitRects(rects, t.minFill)
	older := n.entries
	n.entries = make([]entry, 0, len(g1))
	for _, i := range g1 {
		n.entries = append(n.entries, older[i])
	}
	sib := &node{leaf: n.leaf, entries: make([]entry, 0, len(g2))}
	for _, i := range g2 {
		sib.entries = append(sib.entries, older[i])
	}
	return sib
}

// The rtreecore node algorithms over sort.Slice and fresh index slices.

func referenceChooseSubtree(children []geom.Rect, r geom.Rect, childrenAreLeaves bool) int {
	best := 0
	if childrenAreLeaves {
		cands := referenceCandidateIndices(children, r)
		best = cands[0]
		bestOverlap, bestEnl, bestArea := referenceOverlapEnlargement(children, best, r), children[best].Enlargement(r), children[best].Area()
		for _, i := range cands[1:] {
			ov := referenceOverlapEnlargement(children, i, r)
			enl := children[i].Enlargement(r)
			area := children[i].Area()
			if ov < bestOverlap ||
				(ov == bestOverlap && enl < bestEnl) ||
				(ov == bestOverlap && enl == bestEnl && area < bestArea) {
				best, bestOverlap, bestEnl, bestArea = i, ov, enl, area
			}
		}
		return best
	}
	bestEnl, bestArea := children[0].Enlargement(r), children[0].Area()
	for i := 1; i < len(children); i++ {
		enl := children[i].Enlargement(r)
		area := children[i].Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

func referenceCandidateIndices(children []geom.Rect, r geom.Rect) []int {
	idx := referenceAll(len(children))
	if len(children) <= 32 {
		return idx
	}
	sort.Slice(idx, func(a, b int) bool {
		return children[idx[a]].Enlargement(r) < children[idx[b]].Enlargement(r)
	})
	return idx[:32]
}

func referenceOverlapEnlargement(children []geom.Rect, i int, r geom.Rect) float64 {
	enlarged := children[i].Union(r)
	var before, after float64
	for j, c := range children {
		if j == i {
			continue
		}
		before += children[i].OverlapArea(c)
		after += enlarged.OverlapArea(c)
	}
	return after - before
}

func referenceSplitRects(rects []geom.Rect, minFill int) (g1, g2 []int) {
	n := len(rects)
	if minFill < 1 {
		minFill = 1
	}
	if minFill > n/2 {
		minFill = n / 2
	}
	bestAxis := 0
	bestMargin := referenceMarginSum(rects, 0, minFill)
	if m := referenceMarginSum(rects, 1, minFill); m < bestMargin {
		bestAxis = 1
	}
	order := referenceSortedOrder(rects, bestAxis)
	bestK := -1
	bestOverlap, bestArea := 0.0, 0.0
	for k := minFill; k <= n-minFill; k++ {
		b1 := referenceUnionOf(rects, order[:k])
		b2 := referenceUnionOf(rects, order[k:])
		ov := b1.OverlapArea(b2)
		area := b1.Area() + b2.Area()
		if bestK < 0 || ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = k, ov, area
		}
	}
	g1 = append(g1, order[:bestK]...)
	g2 = append(g2, order[bestK:]...)
	return g1, g2
}

func referenceMarginSum(rects []geom.Rect, axis, minFill int) float64 {
	order := referenceSortedOrder(rects, axis)
	n := len(rects)
	var s float64
	for k := minFill; k <= n-minFill; k++ {
		s += referenceUnionOf(rects, order[:k]).Margin() + referenceUnionOf(rects, order[k:]).Margin()
	}
	return s
}

func referenceSortedOrder(rects []geom.Rect, axis int) []int {
	order := make([]int, len(rects))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := rects[order[a]], rects[order[b]]
		if axis == 0 {
			if ra.MinX != rb.MinX {
				return ra.MinX < rb.MinX
			}
			return ra.MaxX < rb.MaxX
		}
		if ra.MinY != rb.MinY {
			return ra.MinY < rb.MinY
		}
		return ra.MaxY < rb.MaxY
	})
	return order
}

func referenceUnionOf(rects []geom.Rect, idx []int) geom.Rect {
	u := geom.EmptyRect()
	for _, i := range idx {
		u = u.Union(rects[i])
	}
	return u
}

func referenceReinsertOrder(rects []geom.Rect, p int) []int {
	bounds := referenceUnionOf(rects, referenceAll(len(rects)))
	c := bounds.Center()
	order := referenceAll(len(rects))
	sort.Slice(order, func(a, b int) bool {
		da := rects[order[a]].Center().Dist(c)
		db := rects[order[b]].Center().Dist(c)
		return da > db
	})
	if p > len(order) {
		p = len(order)
	}
	return order[:p]
}

func referenceAll(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
