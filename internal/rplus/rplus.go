// Package rplus implements the R+-tree [SRF 87], the overlap-free
// alternative spatial access method the paper names next to the R*-tree
// (section 2.4). Directory regions partition the space instead of
// overlapping; data entries whose rectangles straddle a partition boundary
// are duplicated into every region they touch. Point queries therefore
// follow a single root-to-leaf path — the R+-tree's selling point — at the
// cost of duplicated entries and a larger tree.
//
// This implementation builds the tree statically by recursive median
// partitioning (the dynamic R+-tree insertion algorithm is notoriously
// underspecified in the original paper); queries route page touches
// through the same counting buffer as the R*-tree, so the two methods are
// directly comparable on the paper's I/O metric.
package rplus

import (
	"fmt"
	"sort"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/storage"
)

// Item is one data entry: key rectangle and object ID (same shape as
// rstar.Item).
type Item struct {
	Rect geom.Rect
	ID   int32
}

// Config sizes pages and buffer, mirroring rstar.Config.
type Config struct {
	PageSize       int
	LeafEntryBytes int
	BufferBytes    int
}

// DefaultConfig mirrors the section 5 setup.
func DefaultConfig() Config {
	return Config{PageSize: 4096, LeafEntryBytes: 48, BufferBytes: 128 << 10}
}

const (
	pageHeaderBytes    = 16
	internalEntryBytes = 20
)

// Tree is a bulk-built R+-tree.
type Tree struct {
	root     *node
	buf      *storage.BufferManager
	leafCap  int
	innerCap int
	height   int
	size     int // distinct items
	entries  int // stored entries including duplicates
	nextPage storage.PageID
}

type node struct {
	page   storage.PageID
	region geom.Rect // partition region: disjoint among siblings
	leaf   bool
	items  []Item
	kids   []*node
}

// Build constructs an R+-tree over the items.
func Build(items []Item, cfg Config) *Tree {
	leafCap := (cfg.PageSize - pageHeaderBytes) / cfg.LeafEntryBytes
	innerCap := (cfg.PageSize - pageHeaderBytes) / internalEntryBytes
	if leafCap < 2 || innerCap < 2 {
		panic(fmt.Sprintf("rplus: page size %d too small", cfg.PageSize))
	}
	t := &Tree{
		buf:      storage.NewBufferManager(cfg.BufferBytes, cfg.PageSize),
		leafCap:  leafCap,
		innerCap: innerCap,
		size:     len(items),
	}
	region := geom.EmptyRect()
	for _, it := range items {
		region = region.Union(it.Rect)
	}
	if region.IsEmpty() {
		region = geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	}
	t.root, t.height = t.build(items, region)
	return t
}

func (t *Tree) newNode(leaf bool, region geom.Rect) *node {
	n := &node{page: t.nextPage, leaf: leaf, region: region}
	t.nextPage++
	return n
}

// build recursively partitions the items over the region and returns the
// subtree with its height.
func (t *Tree) build(items []Item, region geom.Rect) (*node, int) {
	if len(items) <= t.leafCap {
		n := t.newNode(true, region)
		n.items = append(n.items, items...)
		t.entries += len(items)
		return n, 1
	}
	parts := t.partition(items, region, t.innerCap)
	if len(parts) == 1 {
		// Unsplittable (all items straddle every cut): oversized leaf.
		n := t.newNode(true, region)
		n.items = append(n.items, items...)
		t.entries += len(items)
		return n, 1
	}
	n := t.newNode(false, region)
	maxH := 0
	for _, part := range parts {
		child, h := t.build(part.items, part.region)
		n.kids = append(n.kids, child)
		if h > maxH {
			maxH = h
		}
	}
	return n, maxH + 1
}

type partition struct {
	region geom.Rect
	items  []Item
}

// partition cuts the region into up to fanout disjoint sub-regions along
// the wider axis, at item-center medians, duplicating straddling items.
func (t *Tree) partition(items []Item, region geom.Rect, fanout int) []partition {
	// Cut into two; recurse on the halves until the fanout budget or the
	// item counts stop improving.
	var rec func(items []Item, region geom.Rect, budget int) []partition
	rec = func(items []Item, region geom.Rect, budget int) []partition {
		if budget <= 1 || len(items) <= t.leafCap {
			return []partition{{region: region, items: items}}
		}
		vertical := region.Width() >= region.Height()
		centers := make([]float64, len(items))
		for i, it := range items {
			if vertical {
				centers[i] = (it.Rect.MinX + it.Rect.MaxX) / 2
			} else {
				centers[i] = (it.Rect.MinY + it.Rect.MaxY) / 2
			}
		}
		sort.Float64s(centers)
		cut := centers[len(centers)/2]
		var rLeft, rRight geom.Rect
		if vertical {
			if cut <= region.MinX || cut >= region.MaxX {
				return []partition{{region: region, items: items}}
			}
			rLeft = geom.Rect{MinX: region.MinX, MinY: region.MinY, MaxX: cut, MaxY: region.MaxY}
			rRight = geom.Rect{MinX: cut, MinY: region.MinY, MaxX: region.MaxX, MaxY: region.MaxY}
		} else {
			if cut <= region.MinY || cut >= region.MaxY {
				return []partition{{region: region, items: items}}
			}
			rLeft = geom.Rect{MinX: region.MinX, MinY: region.MinY, MaxX: region.MaxX, MaxY: cut}
			rRight = geom.Rect{MinX: region.MinX, MinY: cut, MaxX: region.MaxX, MaxY: region.MaxY}
		}
		var left, right []Item
		for _, it := range items {
			if it.Rect.Intersects(rLeft) {
				left = append(left, it)
			}
			if it.Rect.Intersects(rRight) {
				right = append(right, it)
			}
		}
		if len(left) == len(items) && len(right) == len(items) {
			// Every item straddles the cut: splitting duplicates all.
			return []partition{{region: region, items: items}}
		}
		out := rec(left, rLeft, budget/2)
		out = append(out, rec(right, rRight, budget-budget/2)...)
		return out
	}
	return rec(items, region, fanout)
}

// Buffer exposes the page buffer.
func (t *Tree) Buffer() *storage.BufferManager { return t.buf }

// Size returns the number of distinct items.
func (t *Tree) Size() int { return t.size }

// Entries returns the number of stored entries including duplicates — the
// R+-tree's storage overhead.
func (t *Tree) Entries() int { return t.entries }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.height }

// Pages returns the number of allocated pages.
func (t *Tree) Pages() int { return int(t.nextPage) }

// PointQuery calls fn for every item whose rectangle contains p. Because
// sibling regions are disjoint, the search follows a single path (plus
// boundary ties).
func (t *Tree) PointQuery(p geom.Point, fn func(Item)) {
	t.pointQuery(t.root, p, fn)
}

func (t *Tree) pointQuery(n *node, p geom.Point, fn func(Item)) {
	t.buf.Access(n.page)
	if n.leaf {
		for _, it := range n.items {
			if it.Rect.ContainsPoint(p) {
				fn(it)
			}
		}
		return
	}
	for _, k := range n.kids {
		if k.region.ContainsPoint(p) {
			t.pointQuery(k, p, fn)
			// Boundary points may lie in two adjacent regions; continue
			// only over the ties to avoid duplicate reports on interiors.
			if p.X != k.region.MinX && p.X != k.region.MaxX &&
				p.Y != k.region.MinY && p.Y != k.region.MaxY {
				return
			}
		}
	}
}

// WindowQuery calls fn once per distinct item whose rectangle intersects
// w (duplicates from partition boundaries are suppressed).
func (t *Tree) WindowQuery(w geom.Rect, fn func(Item)) {
	seen := make(map[int32]struct{})
	t.windowQuery(t.root, w, seen, fn)
}

func (t *Tree) windowQuery(n *node, w geom.Rect, seen map[int32]struct{}, fn func(Item)) {
	t.buf.Access(n.page)
	if n.leaf {
		for _, it := range n.items {
			if it.Rect.Intersects(w) {
				if _, dup := seen[it.ID]; dup {
					continue
				}
				seen[it.ID] = struct{}{}
				fn(it)
			}
		}
		return
	}
	for _, k := range n.kids {
		if k.region.Intersects(w) {
			t.windowQuery(k, w, seen, fn)
		}
	}
}

// Validate checks the R+-tree invariants: sibling regions are interior-
// disjoint, children lie inside their parent region, every leaf entry
// intersects its leaf region, and every distinct item is reachable.
func (t *Tree) Validate() error {
	ids := make(map[int32]struct{})
	if err := t.validate(t.root, ids); err != nil {
		return err
	}
	if len(ids) != t.size {
		return fmt.Errorf("rplus: %d distinct reachable items, want %d", len(ids), t.size)
	}
	return nil
}

func (t *Tree) validate(n *node, ids map[int32]struct{}) error {
	if n.leaf {
		for _, it := range n.items {
			if !it.Rect.Intersects(n.region) {
				return fmt.Errorf("rplus: leaf item %d outside its region", it.ID)
			}
			ids[it.ID] = struct{}{}
		}
		return nil
	}
	for i, a := range n.kids {
		if !n.region.Contains(a.region) {
			return fmt.Errorf("rplus: child region %v escapes parent %v", a.region, n.region)
		}
		for j := i + 1; j < len(n.kids); j++ {
			inter := a.region.Intersection(n.kids[j].region)
			if inter.Area() > 1e-12 {
				return fmt.Errorf("rplus: sibling regions overlap by %v", inter.Area())
			}
		}
		if err := t.validate(a, ids); err != nil {
			return err
		}
	}
	return nil
}
