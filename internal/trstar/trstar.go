// Package trstar implements the TR*-tree of section 4.2 [SK 91]: a
// main-memory resident R*-tree variant that organizes the trapezoids of
// one decomposed polygon. Its characteristic design choice is a very small
// maximum node capacity (M between 3 and 5, best performance at 3 —
// Figure 17), which minimizes the number of main-memory comparisons per
// traversal. The synchronized traversal of two TR*-trees decides the
// intersection join predicate of a candidate pair at least one order of
// magnitude cheaper than the plane sweep (Table 7).
package trstar

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"spatialjoin/internal/decomp"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/ops"
	"spatialjoin/internal/rtreecore"
)

// Tree is the TR*-tree over the trapezoids of one spatial object.
type Tree struct {
	root     *node
	capacity int // maximum entries per node (M)
	minFill  int // minimum entries per node after a split
	height   int // number of levels (leaf = level 1)
	numTraps int
	// bounds is root.bounds(), computed once the tree is complete: every
	// exact test starts by comparing the two trees' bounds.
	bounds geom.Rect
}

type entry struct {
	rect  geom.Rect
	child *node            // non-leaf entries
	trap  decomp.Trapezoid // leaf entries
}

type node struct {
	leaf    bool
	entries []entry
}

func (n *node) bounds() geom.Rect {
	b := geom.EmptyRect()
	for i := range n.entries {
		b = b.Union(n.entries[i].rect)
	}
	return b
}

// DefaultCapacity is the paper's recommended maximum node capacity
// (Figure 17: M = 3 performs best).
const DefaultCapacity = 3

// NewFromPolygon decomposes p into trapezoids and builds the TR*-tree over
// them — the paper's object-insertion preprocessing for the exact
// geometry processor.
func NewFromPolygon(p *geom.Polygon, capacity int) *Tree {
	return New(decomp.Trapezoidize(p), capacity)
}

// New builds a TR*-tree with the given maximum node capacity over the
// trapezoids, inserting one component at a time with the R*-tree insertion
// algorithms (ChooseSubtree, topological split, forced reinsert).
func New(traps []decomp.Trapezoid, capacity int) *Tree {
	if capacity < 3 {
		panic(fmt.Sprintf("trstar: capacity %d too small (need >= 3)", capacity))
	}
	// Minimum fill 40 % of the capacity, rounded up: splitting an
	// overflowing node of M+1 entries then yields two usable nodes even at
	// the paper's smallest capacity M = 3 (2+2).
	minFill := (capacity*2 + 4) / 5
	if minFill < 2 {
		minFill = 2
	}
	t := &Tree{
		capacity: capacity,
		minFill:  minFill,
		height:   1,
	}
	b := newBuilder(t)
	t.root = b.newNode(true)
	for _, i := range insertionOrder(len(traps)) {
		tr := traps[i]
		b.insert(entry{rect: tr.Bounds(), trap: tr})
		t.numTraps++
	}
	t.bounds = t.root.bounds()
	return t
}

// maxMemoisedOrder bounds the trapezoid counts whose insertion order is
// memoised, and with it the memo: at most half a million indices.
const maxMemoisedOrder = 1024

// insertionOrders[n] holds insertionOrder(n) once it has been computed.
var insertionOrders [maxMemoisedOrder + 1]atomic.Pointer[[]int]

// insertionOrder returns the order in which New inserts n trapezoids.
// Trapezoidize emits components in x order; sequential insertion into an
// R-tree produces poorly filled nodes. A deterministic shuffle restores
// the random insertion order the R*-tree algorithms assume. The shuffle
// is part of the tree's shape — and so of every persisted tree and every
// traversal count — so it stays, with its seed; but it depends on n
// alone, and seeding math/rand costs more than inserting a small
// object's trapezoids, so it is computed once per count. The result is
// shared and must not be modified.
func insertionOrder(n int) []int {
	if n <= maxMemoisedOrder {
		if perm := insertionOrders[n].Load(); perm != nil {
			return *perm
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng := rand.New(rand.NewSource(0x7257a2))
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	if n <= maxMemoisedOrder {
		insertionOrders[n].Store(&perm)
	}
	return perm
}

// Height returns the number of levels of the tree. The paper reports
// average heights of 5.0 (Europe) and 7.6 (BW) with M = 3.
func (t *Tree) Height() int { return t.height }

// NumTrapezoids returns the number of stored components.
func (t *Tree) NumTrapezoids() int { return t.numTraps }

// Capacity returns the maximum node capacity M.
func (t *Tree) Capacity() int { return t.capacity }

// Bounds returns the bounding rectangle of all components.
func (t *Tree) Bounds() geom.Rect { return t.bounds }

// pendingEntry is an entry awaiting (re)insertion at a given level
// (counted from the leaves, leaf = 1, so the target stays valid when the
// root splits and the tree grows).
type pendingEntry struct {
	e     entry
	level int
}

// builder is the scratch of one New call. Each insertion needs a queue of
// pending reinsertions, the set of levels that have had their forced
// reinsertion, and the entry rectangles, index order and drop marks of the
// node it examines; allocating them per insertion made the garbage
// collector the largest cost of a build. The builder holds them for the
// whole build, sized to an overflowing node (capacity + 1 entries), so a
// build allocates its nodes and little else.
type builder struct {
	t     *Tree
	queue []pendingEntry // one insertion's FIFO, walked by index
	// reinserted has bit level-1 set once that level has had its forced
	// reinsertion during the current insertion. Every level at least
	// doubles the entry count, so a tree has far fewer than 64 levels.
	reinserted uint64
	rects      []geom.Rect
	order      []int
	drop       []bool
	older      []entry // an overflowing node's entries while it splits in place
}

func newBuilder(t *Tree) *builder {
	m := t.capacity + 1
	return &builder{
		t:     t,
		rects: make([]geom.Rect, 0, m),
		order: make([]int, m),
		drop:  make([]bool, m),
		older: make([]entry, 0, m),
	}
}

// newNode allocates a node with room for an overflowing entry, so that it
// never reallocates.
func (b *builder) newNode(leaf bool) *node {
	return &node{leaf: leaf, entries: make([]entry, 0, b.t.capacity+1)}
}

// entryRects returns n's entry rectangles in the builder's buffer, valid
// until the next call.
func (b *builder) entryRects(n *node) []geom.Rect {
	b.rects = b.rects[:0]
	for i := range n.entries {
		b.rects = append(b.rects, n.entries[i].rect)
	}
	return b.rects
}

// insert adds a leaf entry, applying forced reinsertion on the first
// overflow per level and splitting otherwise. Reinsertions are queued and
// performed after the current descent unwinds, so a descent never mutates
// nodes outside its own path.
func (b *builder) insert(e entry) {
	t := b.t
	b.queue = append(b.queue[:0], pendingEntry{e: e, level: 1})
	b.reinserted = 0
	for i := 0; i < len(b.queue); i++ {
		p := b.queue[i]
		if split := b.chooseAndInsert(t.root, t.height, p.e, p.level); split != nil {
			// Root split: the tree grows by one level.
			old := t.root
			t.root = b.newNode(false)
			t.root.entries = append(t.root.entries,
				entry{rect: old.bounds(), child: old},
				entry{rect: split.bounds(), child: split})
			t.height++
		}
	}
}

// chooseAndInsert descends to the target level, inserts, and returns a new
// sibling node if the node split.
func (b *builder) chooseAndInsert(n *node, nodeLevel int, e entry, targetLevel int) *node {
	if nodeLevel == targetLevel {
		n.entries = append(n.entries, e)
		return b.overflowTreatment(n, nodeLevel)
	}
	childrenAreLeaves := nodeLevel-1 == 1
	i := rtreecore.ChooseSubtree(b.entryRects(n), e.rect, childrenAreLeaves)
	child := n.entries[i].child
	split := b.chooseAndInsert(child, nodeLevel-1, e, targetLevel)
	n.entries[i].rect = child.bounds()
	if split != nil {
		n.entries = append(n.entries, entry{rect: split.bounds(), child: split})
		return b.overflowTreatment(n, nodeLevel)
	}
	return nil
}

// overflowTreatment applies the R*-tree policy: on the first overflow of a
// level during one insertion, remove the 30 % farthest entries and queue
// them for reinsertion; afterwards, split.
func (b *builder) overflowTreatment(n *node, level int) *node {
	t := b.t
	if len(n.entries) <= t.capacity {
		return nil
	}
	if bit := uint64(1) << (level - 1); level != t.height && b.reinserted&bit == 0 {
		b.reinserted |= bit
		p := max(len(n.entries)*3/10, 1)
		drop := b.drop[:len(n.entries)]
		clear(drop)
		for _, i := range rtreecore.ReinsertOrder(b.entryRects(n), p, b.order) {
			drop[i] = true
			b.queue = append(b.queue, pendingEntry{e: n.entries[i], level: level})
		}
		kept := n.entries[:0]
		for i := range n.entries {
			if !drop[i] {
				kept = append(kept, n.entries[i])
			}
		}
		n.entries = kept
		return nil
	}
	return b.split(n)
}

// split performs the R*-tree topological split in place: n keeps the first
// group, in distribution order, and a new sibling takes the second.
func (b *builder) split(n *node) *node {
	k := rtreecore.Split(b.entryRects(n), b.t.minFill, b.order)
	order := b.order[:len(n.entries)]
	b.older = append(b.older[:0], n.entries...)
	n.entries = n.entries[:0]
	for _, i := range order[:k] {
		n.entries = append(n.entries, b.older[i])
	}
	sib := b.newNode(n.leaf)
	for _, i := range order[k:] {
		sib.entries = append(sib.entries, b.older[i])
	}
	return sib
}

// ContainsPoint reports whether p lies in the closed region represented by
// the tree (i.e. in some trapezoid), counting rectangle and trapezoid
// tests. Due to directory overlap the search may follow several paths; the
// paper notes O(n) worst-case point queries.
func (t *Tree) ContainsPoint(p geom.Point, c *ops.Counters) bool {
	return containsPoint(t.root, p, c)
}

func containsPoint(n *node, p geom.Point, c *ops.Counters) bool {
	for _, e := range n.entries {
		c.RectIntersection++
		if !e.rect.ContainsPoint(p) {
			continue
		}
		if n.leaf {
			c.TrapIntersection++
			if e.trap.ContainsPoint(p) {
				return true
			}
		} else if containsPoint(e.child, p, c) {
			return true
		}
	}
	return false
}

// Intersects decides whether the regions of two TR*-trees intersect via
// synchronized traversal (section 4.2): pairs of directory entries are
// pruned by rectangle intersection tests; pairs of leaf entries whose
// rectangles intersect are decided by trapezoid intersection tests. The
// traversal stops at the first intersecting trapezoid pair. Because the
// trapezoids tile the closed region, area containment (one object inside
// the other) is detected by the same test — no separate point-in-polygon
// fallback is needed.
func Intersects(t1, t2 *Tree, c *ops.Counters) bool {
	if t1.numTraps == 0 || t2.numTraps == 0 {
		return false
	}
	c.RectIntersection++
	if !overlaps(&t1.bounds, &t2.bounds) {
		return false
	}
	return nodesIntersect(t1.root, t2.root, &t1.bounds, &t2.bounds, c)
}

// nodesIntersect expands one node pair; b1 and b2 are the node regions,
// threaded down from the parent entry rectangles so the traversal (which
// runs once per remaining candidate pair of the join) never recomputes a
// bounds union. Entries are addressed by index — the entry struct embeds
// a whole trapezoid, and copying it per comparison dominated the
// traversal's CPU profile — and their rectangles by pointer.
func nodesIntersect(n1, n2 *node, b1, b2 *geom.Rect, c *ops.Counters) bool {
	switch {
	case n1.leaf && n2.leaf:
		for i := range n1.entries {
			e1 := &n1.entries[i]
			for j := range n2.entries {
				e2 := &n2.entries[j]
				c.RectIntersection++
				if !overlaps(&e1.rect, &e2.rect) {
					continue
				}
				c.TrapIntersection++
				if e1.trap.Intersects(e2.trap) {
					return true
				}
			}
		}
		return false
	case !n1.leaf && !n2.leaf:
		for i := range n1.entries {
			e1 := &n1.entries[i]
			for j := range n2.entries {
				e2 := &n2.entries[j]
				c.RectIntersection++
				if overlaps(&e1.rect, &e2.rect) && nodesIntersect(e1.child, e2.child, &e1.rect, &e2.rect, c) {
					return true
				}
			}
		}
		return false
	case n1.leaf:
		// Descend the taller tree only.
		for j := range n2.entries {
			e2 := &n2.entries[j]
			c.RectIntersection++
			if overlaps(&e2.rect, b1) && nodesIntersect(n1, e2.child, b1, &e2.rect, c) {
				return true
			}
		}
		return false
	default:
		for i := range n1.entries {
			e1 := &n1.entries[i]
			c.RectIntersection++
			if overlaps(&e1.rect, b2) && nodesIntersect(e1.child, n2, &e1.rect, b2, c) {
				return true
			}
		}
		return false
	}
}

// overlaps reports whether the closed rectangles r and s share a point.
// It is geom.Rect.Intersects without its two IsEmpty tests and without
// branches: the four comparisons are ANDed as 0/1 flags, so the traversal
// pays one hard-to-predict branch per entry pair, on the result, instead
// of up to four. It requires both rectangles to be proper — MinX ≤ MaxX
// and MinY ≤ MaxY, no NaN — where Intersects also answers false for an
// inverted one. Every entry rectangle of a tree is proper: the exact MBR
// of a trapezoid or of a non-empty child, rederived on decode and checked
// by Validate; so are the tree bounds, their union.
func overlaps(r, s *geom.Rect) bool {
	return bit(r.MinX <= s.MaxX)&bit(s.MinX <= r.MaxX)&bit(r.MinY <= s.MaxY)&bit(s.MinY <= r.MaxY) != 0
}

// bit is 1 for true and 0 for false; the compiler emits it as a SETcc.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// WithinDistance decides whether the regions of two TR*-trees lie within
// Euclidean distance eps of each other, via the same synchronized
// traversal as Intersects with the rectangle intersection tests replaced
// by rectangle gap tests (a sound prune: the MBR distance lower bounds
// the trapezoid distance) and the trapezoid intersection tests by
// trapezoid within-eps tests. Neither computes a distance: gaps are
// compared squared against eps², hoisted here once. Because the
// trapezoids tile the closed regions, the first component pair within
// eps decides the predicate — containment configurations included (an
// overlapping pair has distance 0). With eps = 0 the predicate coincides
// with Intersects.
func WithinDistance(t1, t2 *Tree, eps float64, c *ops.Counters) bool {
	if t1.numTraps == 0 || t2.numTraps == 0 {
		return false
	}
	eps2 := eps * eps
	c.RectIntersection++
	if gap2(&t1.bounds, &t2.bounds) > eps2 {
		return false
	}
	return nodesWithin(t1.root, t2.root, &t1.bounds, &t2.bounds, eps, eps2, c)
}

// nodesWithin mirrors nodesIntersect (threaded bounds, index-addressed
// entries, rectangles by pointer) with within-eps tests in place of
// intersection tests; eps2 is eps squared.
func nodesWithin(n1, n2 *node, b1, b2 *geom.Rect, eps, eps2 float64, c *ops.Counters) bool {
	switch {
	case n1.leaf && n2.leaf:
		for i := range n1.entries {
			e1 := &n1.entries[i]
			for j := range n2.entries {
				e2 := &n2.entries[j]
				c.RectIntersection++
				if gap2(&e1.rect, &e2.rect) > eps2 {
					continue
				}
				c.TrapIntersection++
				if e1.trap.WithinDist(e2.trap, eps) {
					return true
				}
			}
		}
		return false
	case !n1.leaf && !n2.leaf:
		for i := range n1.entries {
			e1 := &n1.entries[i]
			for j := range n2.entries {
				e2 := &n2.entries[j]
				c.RectIntersection++
				if gap2(&e1.rect, &e2.rect) <= eps2 && nodesWithin(e1.child, e2.child, &e1.rect, &e2.rect, eps, eps2, c) {
					return true
				}
			}
		}
		return false
	case n1.leaf:
		// Descend the taller tree only.
		for j := range n2.entries {
			e2 := &n2.entries[j]
			c.RectIntersection++
			if gap2(&e2.rect, b1) <= eps2 && nodesWithin(n1, e2.child, b1, &e2.rect, eps, eps2, c) {
				return true
			}
		}
		return false
	default:
		for i := range n1.entries {
			e1 := &n1.entries[i]
			c.RectIntersection++
			if gap2(&e1.rect, b2) <= eps2 && nodesWithin(e1.child, n2, &e1.rect, b2, eps, eps2, c) {
				return true
			}
		}
		return false
	}
}

// gap2 is geom.Rect.Dist2 for proper rectangles, as overlaps is
// Intersects: the squared distance between r and s, 0 when they meet.
func gap2(r, s *geom.Rect) float64 {
	dx := max(0, s.MinX-r.MaxX, r.MinX-s.MaxX)
	dy := max(0, s.MinY-r.MaxY, r.MinY-s.MaxY)
	return dx*dx + dy*dy
}

// Validate checks the TR*-tree invariants (entry rectangles are proper and
// tightly bound children, capacities respected, all trapezoids reachable
// at one level).
// It is meant for tests.
func (t *Tree) Validate() error {
	count, err := validate(t.root, t.height, t.capacity)
	if err != nil {
		return err
	}
	if count != t.numTraps {
		return fmt.Errorf("trstar: reachable trapezoids %d != recorded %d", count, t.numTraps)
	}
	return nil
}

func validate(n *node, level, capacity int) (int, error) {
	if len(n.entries) > capacity {
		return 0, fmt.Errorf("trstar: node with %d > %d entries", len(n.entries), capacity)
	}
	for _, e := range n.entries {
		// The traversals' rectangle tests assume proper rectangles (see
		// overlaps); an empty child's bounds, say, would be inverted.
		if !(e.rect.MinX <= e.rect.MaxX && e.rect.MinY <= e.rect.MaxY) {
			return 0, fmt.Errorf("trstar: entry rect %v is inverted or NaN", e.rect)
		}
	}
	if n.leaf {
		if level != 1 {
			return 0, fmt.Errorf("trstar: leaf at level %d", level)
		}
		for _, e := range n.entries {
			if !e.rect.Contains(e.trap.Bounds()) || !e.trap.Bounds().Contains(e.rect) {
				return 0, fmt.Errorf("trstar: leaf entry rect %v is not the trapezoid MBR", e.rect)
			}
		}
		return len(n.entries), nil
	}
	total := 0
	for _, e := range n.entries {
		cb := e.child.bounds()
		if !e.rect.Contains(cb) || !cb.Contains(e.rect) {
			return 0, fmt.Errorf("trstar: directory rect %v != child bounds %v", e.rect, cb)
		}
		sub, err := validate(e.child, level-1, capacity)
		if err != nil {
			return 0, err
		}
		total += sub
	}
	return total, nil
}
