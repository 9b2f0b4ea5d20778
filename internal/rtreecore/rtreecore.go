// Package rtreecore implements the node-level algorithms of the R*-tree
// [BKSS 90] shared by the secondary-storage R*-tree (package rstar) and
// its main-memory variant, the TR*-tree (package trstar): subtree choice,
// the topological split (choose axis by margin, choose distribution by
// overlap, then area) and the forced-reinsert candidate order.
package rtreecore

import (
	"slices"

	"spatialjoin/internal/geom"
)

// chooseSubtreeCandidates bounds the overlap-enlargement computation: for
// large node capacities, [BKSS 90] determines the overlap criterion only
// among the 32 entries with the least area enlargement ("to reduce the
// CPU cost ... the determination of the minimum overlap is restricted").
const chooseSubtreeCandidates = 32

// ChooseSubtree returns the index of the child rectangle the new entry
// should descend into. For children that are leaves the R*-tree minimizes
// overlap enlargement (resolving ties by area enlargement, then area),
// restricted to the 32 least-area-enlargement entries as in [BKSS 90];
// for internal children it minimizes area enlargement (ties by area).
func ChooseSubtree(children []geom.Rect, r geom.Rect, childrenAreLeaves bool) int {
	best := 0
	if childrenAreLeaves {
		var buf [chooseSubtreeCandidates]int
		cands := candidateIndices(children, r, buf[:0])
		best = cands[0]
		bestOverlap, bestEnl, bestArea := overlapEnlargement(children, best, r), children[best].Enlargement(r), children[best].Area()
		for _, i := range cands[1:] {
			ov := overlapEnlargement(children, i, r)
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

// candidateIndices appends to idx the indices examined by the leaf-level
// overlap criterion: all of them for small nodes, otherwise the
// chooseSubtreeCandidates entries with the least area enlargement.
func candidateIndices(children []geom.Rect, r geom.Rect, idx []int) []int {
	for i := range children {
		idx = append(idx, i)
	}
	if len(children) <= chooseSubtreeCandidates {
		return idx
	}
	slices.SortFunc(idx, func(a, b int) int {
		return compareLess(children[a].Enlargement(r), children[b].Enlargement(r))
	})
	return idx[:chooseSubtreeCandidates]
}

// overlapEnlargement returns the increase of the total overlap between
// children[i] and its siblings when children[i] is enlarged to include r.
func overlapEnlargement(children []geom.Rect, i int, r geom.Rect) float64 {
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

// Split partitions the rectangles into two groups according to the R*-tree
// topological split. It writes all entry indices into order, which must
// have room for len(rects), in the chosen distribution's order and
// returns the size k of the first group: the groups are order[:k] and
// order[k:]. minFill is the minimum number of entries per group (the
// R*-tree uses 40 % of the capacity).
func Split(rects []geom.Rect, minFill int, order []int) int {
	n := len(rects)
	order = order[:n]
	if minFill < 1 {
		minFill = 1
	}
	if minFill > n/2 {
		minFill = n / 2
	}

	// Choose the split axis: the one with the smallest total margin over
	// all candidate distributions of both sortings.
	bestAxis := 0
	bestMargin := marginSum(rects, 0, minFill, order)
	if m := marginSum(rects, 1, minFill, order); m < bestMargin {
		bestAxis = 1
	}

	// Choose the distribution on the winning axis: minimum overlap,
	// resolving ties by minimum total area.
	sortOrder(rects, bestAxis, order)
	bestK := -1
	bestOverlap, bestArea := 0.0, 0.0
	for k := minFill; k <= n-minFill; k++ {
		b1 := unionOf(rects, order[:k])
		b2 := unionOf(rects, order[k:])
		ov := b1.OverlapArea(b2)
		area := b1.Area() + b2.Area()
		if bestK < 0 || ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = k, ov, area
		}
	}
	return bestK
}

// marginSum returns the sum of the margins of all candidate distributions
// along the given axis (0 = x, 1 = y), the R*-tree split-axis goodness;
// order is its scratch.
func marginSum(rects []geom.Rect, axis, minFill int, order []int) float64 {
	sortOrder(rects, axis, order)
	n := len(rects)
	var s float64
	for k := minFill; k <= n-minFill; k++ {
		s += unionOf(rects, order[:k]).Margin() + unionOf(rects, order[k:]).Margin()
	}
	return s
}

// sortOrder fills order with the entry indices sorted by (min, max) along
// the axis. It starts from the identity every time, so a sort along an
// axis always permutes ties the same way.
func sortOrder(rects []geom.Rect, axis int, order []int) {
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ra, rb := &rects[a], &rects[b]
		if axis == 0 {
			if ra.MinX != rb.MinX {
				return compareLess(ra.MinX, rb.MinX)
			}
			return compareLess(ra.MaxX, rb.MaxX)
		}
		if ra.MinY != rb.MinY {
			return compareLess(ra.MinY, rb.MinY)
		}
		return compareLess(ra.MaxY, rb.MaxY)
	})
}

func unionOf(rects []geom.Rect, idx []int) geom.Rect {
	u := geom.EmptyRect()
	for _, i := range idx {
		u = u.Union(rects[i])
	}
	return u
}

// ReinsertOrder returns the indices of the p entries to remove for forced
// reinsertion: the entries whose centers are farthest from the center of
// the node's bounding rectangle, in decreasing distance ("far reinsert").
// The result is a prefix of order, which must have room for len(rects).
func ReinsertOrder(rects []geom.Rect, p int, order []int) []int {
	bounds := geom.EmptyRect()
	for _, r := range rects {
		bounds = bounds.Union(r)
	}
	c := bounds.Center()
	order = order[:len(rects)]
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return compareLess(rects[b].Center().Dist(c), rects[a].Center().Dist(c))
	})
	return order[:min(p, len(order))]
}

// compareLess is a three-way comparison that is negative exactly where
// a < b. slices.SortFunc consults only that sign, and it runs the same
// pdqsort as sort.Slice, so a sort by compareLess permutes equal keys
// exactly as sort.Slice with "a < b" did — which entries tie, and how the
// tie falls, decides the shape of every tree built with these algorithms.
func compareLess(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}
