package rstar

import (
	"spatialjoin/internal/geom"
	"spatialjoin/internal/storage"
)

// nnCandidate is one priority-queue element of the nearest-neighbour
// ranking: a node entry (a subtree, or an item when the entry's child is
// nil) and the distance of its rectangle to the query point.
type nnCandidate struct {
	dist float64
	e    *entry
}

// NearestNeighborsAccess returns the k items whose key rectangles are
// closest to p (by minimum distance; 0 for covering rectangles): the
// first k items of the best-first ranking. Spatial selections like this
// are among the basic operations the paper lists in section 2. Page
// visits are routed through the access context ax (see
// WindowQueryAccess).
func (t *Tree) NearestNeighborsAccess(ax storage.Accessor, p geom.Point, k int) []Item {
	if k <= 0 || t.size == 0 {
		return nil
	}
	out := make([]Item, 0, min(k, t.size))
	t.NearestRankAccess(ax, p, func(it Item, _ float64) bool {
		out = append(out, it)
		return len(out) < k
	})
	return out
}

// NearestRankAccess is the incremental best-first ranking (Hjaltason and
// Samet's distance browsing): it calls visit with every item and the
// distance of its key rectangle to p, in ascending distance, until visit
// returns false. A node's page is accessed when the node is expanded, so
// a caller that stops early pays only for the part of the tree closer
// than the last item it saw.
func (t *Tree) NearestRankAccess(ax storage.Accessor, p geom.Point, visit func(it Item, dist float64) bool) {
	if t.size == 0 {
		return
	}
	// The root's entries and two full leaves: a ranking that stops after a
	// handful of items seldom queues more, and one allocation then serves.
	heap := nnHeap{items: make([]nnCandidate, 0, len(t.root.entries)+2*t.leafCap)}
	for n := t.root; n != nil; {
		ax.Access(n.page)
		for i := range n.entries {
			e := &n.entries[i]
			heap.push(nnCandidate{dist: rectDist(e.rect, p), e: e})
		}
		// Items nearer than every queued subtree are final; the nearest
		// subtree, once it surfaces, is expanded next.
		for n = nil; n == nil && heap.len() > 0; {
			if c := heap.pop(); c.e.child != nil {
				n = c.e.child
			} else if !visit(c.e.item, c.dist) {
				return
			}
		}
	}
}

// rectDist returns the minimum distance between p and the closed rectangle.
func rectDist(r geom.Rect, p geom.Point) float64 {
	dx := 0.0
	if p.X < r.MinX {
		dx = r.MinX - p.X
	} else if p.X > r.MaxX {
		dx = p.X - r.MaxX
	}
	dy := 0.0
	if p.Y < r.MinY {
		dy = r.MinY - p.Y
	} else if p.Y > r.MaxY {
		dy = p.Y - r.MaxY
	}
	if dx == 0 {
		return dy
	}
	if dy == 0 {
		return dx
	}
	return geom.Point{X: dx, Y: dy}.Norm()
}

// nnHeap is a minimal binary min-heap on candidate distance.
type nnHeap struct {
	items []nnCandidate
}

func (h *nnHeap) len() int { return len(h.items) }

func (h *nnHeap) push(c nnCandidate) {
	h.items = append(h.items, c)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].dist <= h.items[i].dist {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *nnHeap) pop() nnCandidate {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.items[l].dist < h.items[small].dist {
			small = l
		}
		if r < last && h.items[r].dist < h.items[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}
