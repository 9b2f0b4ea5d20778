// Package rstar implements the R*-tree [BKSS 90] as a secondary-storage
// spatial access method: nodes correspond to pages of a configurable size,
// every node visit is routed through an LRU buffer manager, and the entry
// payload size is configurable so that storing approximations in addition
// to the MBR (section 3.4, approach 2) measurably reduces the page
// capacity — exactly the trade-off Figures 10 and 11 quantify.
//
// The spatial join of step 1 (the MBR-join) is the synchronized traversal
// of two R*-trees after [BKS 93a], with restriction of the search space to
// the intersection rectangle of the node regions and plane-sweep ordering
// of the entries.
package rstar

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"spatialjoin/internal/freelist"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/rtreecore"
	"spatialjoin/internal/storage"
)

// Item is one data entry of the tree: a geometric key (normally the MBR of
// the object; under section 3.4's approach 1, the bounding box of a finer
// conservative approximation) and the object identifier.
type Item struct {
	Rect geom.Rect
	ID   int32
}

// Config sizes the tree's pages and buffer.
type Config struct {
	// PageSize is the page size in bytes (the paper uses 2048 and 4096).
	PageSize int
	// LeafEntryBytes is the size of one data entry: 16 B for the MBR plus
	// 32 B of additional information plus any approximations stored with
	// it (section 5; see approx.ApproxByteSize).
	LeafEntryBytes int
	// BufferBytes is the LRU buffer capacity (the paper uses 128 KB).
	BufferBytes int
	// BufferPolicy selects the page replacement policy (default LRU, the
	// paper's choice). Every tree counts its node visits on a
	// storage.BufferManager sized by PageSize, BufferBytes and
	// BufferPolicy.
	BufferPolicy storage.Policy
}

const (
	pageHeaderBytes    = 16 // level, count, ...
	internalEntryBytes = 20 // MBR (16 B) + child pointer (4 B)
)

// Tree is a paged R*-tree.
type Tree struct {
	cfg      Config
	buf      *storage.BufferManager
	root     *node
	height   int
	size     int
	leafCap  int
	innerCap int
	minLeaf  int
	minInner int
	nextPage storage.PageID

	// ordered reports that every node's xorder is current. Insert clears
	// it; orderEntries, under orderMu, sets it once the orders are
	// computed, so concurrent joins on a finished tree share them.
	ordered atomic.Bool
	orderMu sync.Mutex
}

type entry struct {
	rect  geom.Rect
	child *node // nil for leaf entries
	item  Item
}

type node struct {
	page    storage.PageID
	leaf    bool
	entries []entry
	// xorder lists the entry indexes by rect.MinX, ties by index: the
	// plane-sweep order of the MBR-join, computed once per finished tree
	// (orderEntries) instead of at every node-pair expansion.
	xorder []int32
}

func (n *node) bounds() geom.Rect {
	b := geom.EmptyRect()
	for _, e := range n.entries {
		b = b.Union(e.rect)
	}
	return b
}

// New creates an empty tree. Capacities derive from the page geometry; a
// page must fit at least three entries of either kind.
func New(cfg Config) *Tree {
	leafCap := (cfg.PageSize - pageHeaderBytes) / cfg.LeafEntryBytes
	innerCap := (cfg.PageSize - pageHeaderBytes) / internalEntryBytes
	if leafCap < 3 || innerCap < 3 {
		panic(fmt.Sprintf("rstar: page size %d too small for entries of %d bytes",
			cfg.PageSize, cfg.LeafEntryBytes))
	}
	t := &Tree{
		cfg:      cfg,
		buf:      storage.NewBufferManagerPolicy(cfg.BufferBytes, cfg.PageSize, cfg.BufferPolicy),
		height:   1,
		leafCap:  leafCap,
		innerCap: innerCap,
		minLeaf:  maxInt(2, leafCap*2/5),
		minInner: maxInt(2, innerCap*2/5),
	}
	t.root = t.newNode(true)
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (t *Tree) newNode(leaf bool) *node {
	n := &node{page: t.nextPage, leaf: leaf}
	t.nextPage++
	return n
}

// Buffer exposes the page buffer for measurements.
func (t *Tree) Buffer() *storage.BufferManager { return t.buf }

// Size returns the number of stored items.
func (t *Tree) Size() int { return t.size }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.height }

// Pages returns the number of allocated pages.
func (t *Tree) Pages() int { return int(t.nextPage) }

// LeafCapacity returns the data-page capacity implied by the entry size —
// the quantity the approximation storage of section 3.4 reduces.
func (t *Tree) LeafCapacity() int { return t.leafCap }

// PageBreakdown counts the live leaf and directory pages of the tree —
// the statistics hook for the adaptive planner, whose traversal cost
// term charges per page touched. It walks the current node structure,
// so (unlike Pages, which reports the allocation high-water mark) the
// counts reflect pages a traversal can actually reach. Only the
// benchmark's stage replay calls it (ROADMAP items 4(b), 23).
func (t *Tree) PageBreakdown() (leaves, dirs int) {
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			leaves++
			return
		}
		dirs++
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(t.root)
	return leaves, dirs
}

// capacityOf returns the capacity of a node at the given level.
func (t *Tree) capacityOf(leaf bool) int {
	if leaf {
		return t.leafCap
	}
	return t.innerCap
}

func (t *Tree) minFillOf(leaf bool) int {
	if leaf {
		return t.minLeaf
	}
	return t.minInner
}

// touch routes one node visit through the shared buffer — the
// single-query accounting mode used by construction and the plain query
// entry points. Queries that must run concurrently route their visits
// through a per-query storage.Accessor instead (the *Access variants).
func (t *Tree) touch(n *node) { t.buf.Access(n.page) }

// NewSession returns a per-query access context over the tree's page
// store: a private replacement simulation seeded from the store's
// current buffer snapshot, with its own counters. Any number of sessions
// may query the tree concurrently through the *Access entry points; the
// shared buffer (and therefore every other query's accounting) is left
// untouched.
func (t *Tree) NewSession() *storage.Session { return storage.NewSession(t.buf) }

// Insert adds an item, following the R*-tree insertion algorithm
// (ChooseSubtree by overlap/area enlargement, forced reinsertion on the
// first overflow per level, topological split otherwise).
func (t *Tree) Insert(it Item) {
	t.ordered.Store(false)
	t.size++
	queue := []pendingEntry{{e: entry{rect: it.Rect, item: it}, level: 1}}
	reinserted := make(map[int]bool)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		split := t.chooseAndInsert(t.root, t.height, p.e, p.level, reinserted, &queue)
		if split != nil {
			old := t.root
			t.root = t.newNode(false)
			t.root.entries = []entry{
				{rect: old.bounds(), child: old},
				{rect: split.bounds(), child: split},
			}
			t.height++
		}
	}
}

type pendingEntry struct {
	e     entry
	level int
}

func (t *Tree) chooseAndInsert(n *node, nodeLevel int, e entry, targetLevel int, reinserted map[int]bool, queue *[]pendingEntry) *node {
	t.touch(n)
	if nodeLevel == targetLevel {
		n.entries = append(n.entries, e)
		return t.overflowTreatment(n, nodeLevel, reinserted, queue)
	}
	rects := make([]geom.Rect, len(n.entries))
	for i, c := range n.entries {
		rects[i] = c.rect
	}
	i := rtreecore.ChooseSubtree(rects, e.rect, nodeLevel-1 == 1)
	child := n.entries[i].child
	split := t.chooseAndInsert(child, nodeLevel-1, e, targetLevel, reinserted, queue)
	n.entries[i].rect = child.bounds()
	if split != nil {
		n.entries = append(n.entries, entry{rect: split.bounds(), child: split})
		return t.overflowTreatment(n, nodeLevel, reinserted, queue)
	}
	return nil
}

func (t *Tree) overflowTreatment(n *node, level int, reinserted map[int]bool, queue *[]pendingEntry) *node {
	if len(n.entries) <= t.capacityOf(n.leaf) {
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
		order := rtreecore.ReinsertOrder(rects, p, make([]int, len(rects)))
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
	return t.split(n)
}

func (t *Tree) split(n *node) *node {
	rects := make([]geom.Rect, len(n.entries))
	for i, e := range n.entries {
		rects[i] = e.rect
	}
	order := make([]int, len(rects))
	k := rtreecore.Split(rects, t.minFillOf(n.leaf), order)
	g1, g2 := order[:k], order[k:]
	older := n.entries
	n.entries = make([]entry, 0, len(g1))
	for _, i := range g1 {
		n.entries = append(n.entries, older[i])
	}
	sib := t.newNode(n.leaf)
	sib.entries = make([]entry, 0, len(g2))
	for _, i := range g2 {
		sib.entries = append(sib.entries, older[i])
	}
	t.touch(sib)
	return sib
}

// WindowQueryAccess calls fn for every item whose key rectangle
// intersects the query window w, with page visits routed through the
// access context ax: the tree's shared Buffer, or a per-query session
// (NewSession), with which any number of searches may run concurrently
// on the same tree. A point query is the degenerate window.
func (t *Tree) WindowQueryAccess(ax storage.Accessor, w geom.Rect, fn func(Item)) {
	t.WindowQueryAccessStop(ax, w, nil, fn)
}

// WindowQueryAccessStop is WindowQueryAccess with an abort channel: done
// is polled at every node visit and ends the search once it is closed —
// pass a context's Done channel (nil never aborts).
func (t *Tree) WindowQueryAccessStop(ax storage.Accessor, w geom.Rect, done <-chan struct{}, fn func(Item)) {
	t.searchRect(ax, t.root, w, done, fn)
}

func (t *Tree) searchRect(ax storage.Accessor, n *node, w geom.Rect, done <-chan struct{}, fn func(Item)) {
	if cancelled(done) {
		return
	}
	ax.Access(n.page)
	for _, e := range n.entries {
		if !e.rect.Intersects(w) {
			continue
		}
		if n.leaf {
			fn(e.item)
		} else {
			t.searchRect(ax, e.child, w, done, fn)
		}
	}
}

// Validate checks the structural invariants; for tests.
func (t *Tree) Validate() error {
	count, err := t.validate(t.root, t.height)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rstar: reachable items %d != size %d", count, t.size)
	}
	return nil
}

func (t *Tree) validate(n *node, level int) (int, error) {
	if len(n.entries) > t.capacityOf(n.leaf) {
		return 0, fmt.Errorf("rstar: node with %d entries exceeds capacity %d", len(n.entries), t.capacityOf(n.leaf))
	}
	if n.leaf {
		if level != 1 {
			return 0, fmt.Errorf("rstar: leaf at level %d", level)
		}
		return len(n.entries), nil
	}
	total := 0
	for _, e := range n.entries {
		cb := e.child.bounds()
		if !e.rect.Contains(cb) || !cb.Contains(e.rect) {
			return 0, fmt.Errorf("rstar: directory rect %v != child bounds %v", e.rect, cb)
		}
		sub, err := t.validate(e.child, level-1)
		if err != nil {
			return 0, err
		}
		total += sub
	}
	return total, nil
}

// JoinStats reports the work of one MBR-join.
type JoinStats struct {
	Pairs     int64 // candidate pairs emitted
	RectTests int64 // key intersection tests between entries (all levels)
	LeafTests int64 // key intersection tests between data entries only
}

// orderEntries computes every node's xorder unless the tree's orders are
// current. A tree is finished once no Insert follows: the first join
// after a build orders it (a decoded tree is ordered by UnmarshalTree),
// and the joins after that only load the flag. The mutex makes
// concurrent first joins on one tree, as the tile fan-out runs them,
// compute the orders once and read them after they are written.
func (t *Tree) orderEntries() {
	if t.ordered.Load() {
		return
	}
	t.orderMu.Lock()
	defer t.orderMu.Unlock()
	if t.ordered.Load() {
		return
	}
	var order func(n *node)
	order = func(n *node) {
		n.xorder = make([]int32, len(n.entries))
		for i := range n.xorder {
			n.xorder[i] = int32(i)
		}
		slices.SortFunc(n.xorder, func(a, b int32) int {
			return cmp.Or(cmp.Compare(n.entries[a].rect.MinX, n.entries[b].rect.MinX), cmp.Compare(a, b))
		})
		if !n.leaf {
			for i := range n.entries {
				order(n.entries[i].child)
			}
		}
	}
	order(t.root)
	t.ordered.Store(true)
}

// fanout returns the most entries a node of the tree holds.
func (t *Tree) fanout() int { return max(t.leafCap, t.innerCap) }

// joinVisit is the synchronized traversal of JoinParallelAccess,
// parameterized over how node visits are recorded: the sequential
// traversal routes them through access contexts (ax1/ax2), while the
// partitioned one records per-task page traces (trace1/trace2) and replays
// them afterwards (the buffer manager is not safe for concurrent use, and
// replaying in canonical order keeps the miss counts identical to the
// sequential traversal). eps widens every rectangle predicate for the
// within-distance join (0 = plain intersection); closing done aborts the
// traversal early.
//
// The visitor owns one sweep scratch per traversal depth, so the restrict
// buffers of every node-pair expansion are reused across sibling pairs at
// the same depth. Visitors come from a free list and keep their ladders,
// every rung sized to the trees' fan-out, so the reuse spans joins too:
// in steady state an expansion performs zero heap allocations (guarded by
// TestNodePairSweepAllocFree) and a warmed join allocates a constant
// (TestJoinAllocsBounded), whichever visitor each worker gets.
type joinVisit struct {
	ax1, ax2       storage.Accessor // nil: record into the traces instead
	trace1, trace2 *[]storage.PageID
	st             *JoinStats
	fn             func(a, b Item)
	eps            float64
	done           <-chan struct{}
	depth          int
	fan1, fan2     int // the trees' fan-outs, the rungs' capacities
	scratch        []sweepScratch
}

// sweepScratch holds the restricted entry indexes of one traversal
// depth, in x-order. The slices are stored back after every use so their
// capacity survives to the next node pair at that depth.
type sweepScratch struct{ r1, r2 []int32 }

var visits freelist.List[joinVisit]

// newJoinVisit takes a visitor from the free list for a traversal of the
// two trees, its ladder sized for the recursion: it descends at least one
// tree per level, so the depth never exceeds the height sum. The caller
// returns it with release when the traversal ends.
func newJoinVisit(t1, t2 *Tree, st *JoinStats, eps float64, done <-chan struct{}, fn func(a, b Item)) *joinVisit {
	v := visits.Get()
	v.st, v.fn, v.eps, v.done = st, fn, eps, done
	v.fan1, v.fan2 = t1.fanout(), t2.fanout()
	for i := range v.scratch {
		v.scratch[i].fit(v.fan1, v.fan2)
	}
	v.scratchAt(t1.height + t2.height)
	return v
}

// release returns the visitor to the free list, keeping its scratch
// ladder and dropping the finished join's callbacks, accessors and
// traces.
func (v *joinVisit) release() {
	*v = joinVisit{scratch: v.scratch}
	visits.Put(v, 0)
}

// scratchAt returns the sweep scratch of one traversal depth, growing the
// ladder if a caller exceeds the sizing estimate.
func (v *joinVisit) scratchAt(d int) *sweepScratch {
	for d >= len(v.scratch) {
		v.scratch = append(v.scratch, sweepScratch{})
		v.scratch[len(v.scratch)-1].fit(v.fan1, v.fan2)
	}
	return &v.scratch[d]
}

// fit gives the scratch room for two nodes of n1 and n2 entries.
func (sc *sweepScratch) fit(n1, n2 int) {
	if cap(sc.r1) < n1 {
		sc.r1 = make([]int32, 0, n1)
	}
	if cap(sc.r2) < n2 {
		sc.r2 = make([]int32, 0, n2)
	}
}

func (v *joinVisit) touch1(n *node) {
	if v.ax1 != nil {
		v.ax1.Access(n.page)
		return
	}
	*v.trace1 = append(*v.trace1, n.page)
}

func (v *joinVisit) touch2(n *node) {
	if v.ax2 != nil {
		v.ax2.Access(n.page)
		return
	}
	*v.trace2 = append(*v.trace2, n.page)
}

// cancelled reports, without blocking, whether done is closed: the
// cancellation poll of the traversals, cheap enough for every node visit.
// A nil done (an uncancellable context's) is never closed.
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// within reports whether the per-axis gap between two rectangles is at
// most eps — the ε-expanded intersection predicate. With eps = 0 it is
// exactly Rect.Intersects.
func within(a, b geom.Rect, eps float64) bool {
	if a.IsEmpty() || b.IsEmpty() {
		return false
	}
	return a.MinX <= b.MaxX+eps && b.MinX <= a.MaxX+eps &&
		a.MinY <= b.MaxY+eps && b.MinY <= a.MaxY+eps
}

// nodes expands one node pair. b1 and b2 are the node regions, threaded
// down from the parent entries (the directory invariant makes the entry
// rectangle exactly the child's bounds), so the traversal never recomputes
// a bounds union. Both trees must be ordered (orderEntries).
func (v *joinVisit) nodes(n1, n2 *node, b1, b2 geom.Rect) {
	if cancelled(v.done) {
		return
	}
	v.touch1(n1)
	v.touch2(n2)
	// Restrict the search space to the intersection of the ε-expanded
	// node regions: every entry pair within eps of each other has both
	// entries intersecting it (each rectangle lies in its own expanded
	// region and meets the expansion of the other side's).
	inter := b1.Expand(v.eps).Intersection(b2.Expand(v.eps))
	if inter.IsEmpty() {
		return
	}
	sc := v.scratchAt(v.depth)
	v.depth++
	switch {
	case n1.leaf && n2.leaf:
		before := v.st.RectTests
		sweepPairs(n1, n2, inter, v.eps, v.st, sc, func(e1, e2 *entry) {
			v.st.Pairs++
			v.fn(e1.item, e2.item)
		})
		v.st.LeafTests += v.st.RectTests - before
	case !n1.leaf && !n2.leaf:
		sweepPairs(n1, n2, inter, v.eps, v.st, sc, func(e1, e2 *entry) {
			v.nodes(e1.child, e2.child, e1.rect, e2.rect)
		})
	case n1.leaf:
		// Different heights: descend the deeper tree only.
		for i := range n2.entries {
			v.st.RectTests++
			if within(n2.entries[i].rect, b1, v.eps) {
				v.nodes(n1, n2.entries[i].child, b1, n2.entries[i].rect)
			}
		}
	default:
		for i := range n1.entries {
			v.st.RectTests++
			if within(n1.entries[i].rect, b2, v.eps) {
				v.nodes(n1.entries[i].child, n2, n1.entries[i].rect, b2)
			}
		}
	}
	v.depth--
}

// sweepPairs enumerates the pairs of entries of two nodes whose
// rectangles satisfy the ε-expanded intersection predicate. Restricting
// the search space: only entries intersecting the (ε-expanded) common
// intersection rectangle participate. Plane-sweep order: each node's
// restricted entries are taken in its x-order (by MinX) and swept, so an
// entry is only tested against entries whose x ranges come within eps of
// its own [BKS 93a]. The restriction keeps entry indexes in sc's reusable
// buffers: an expansion sorts nothing, copies no entry and, warmed,
// allocates nothing.
func sweepPairs(n1, n2 *node, inter geom.Rect, eps float64, st *JoinStats, sc *sweepScratch, emit func(a, b *entry)) {
	r1 := restrict(n1, inter, st, sc.r1[:0])
	sc.r1 = r1
	r2 := restrict(n2, inter, st, sc.r2[:0])
	sc.r2 = r2
	e1, e2 := n1.entries, n2.entries
	i, j := 0, 0
	for i < len(r1) && j < len(r2) {
		if a, b := &e1[r1[i]], &e2[r2[j]]; a.rect.MinX <= b.rect.MinX {
			sweepInternal(a, e2, r2[j:], eps, st, emit, false)
			i++
		} else {
			sweepInternal(b, e1, r1[i:], eps, st, emit, true)
			j++
		}
	}
}

// sweepInternal tests pivot against the entries of others listed in
// order while their x ranges come within eps of the pivot's.
func sweepInternal(pivot *entry, others []entry, order []int32, eps float64, st *JoinStats, emit func(a, b *entry), swapped bool) {
	for _, k := range order {
		o := &others[k]
		if o.rect.MinX > pivot.rect.MaxX+eps {
			return
		}
		st.RectTests++
		if pivot.rect.MinY <= o.rect.MaxY+eps && o.rect.MinY <= pivot.rect.MaxY+eps {
			if swapped {
				emit(o, pivot)
			} else {
				emit(pivot, o)
			}
		}
	}
}

// restrict appends to buf, in x-order, the indexes of the node's entries
// that intersect the search-space rectangle.
func restrict(n *node, inter geom.Rect, st *JoinStats, buf []int32) []int32 {
	for _, k := range n.xorder {
		st.RectTests++
		if n.entries[k].rect.Intersects(inter) {
			buf = append(buf, k)
		}
	}
	return buf
}
