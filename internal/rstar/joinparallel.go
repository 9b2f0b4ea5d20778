package rstar

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"spatialjoin/internal/freelist"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/storage"
)

// JoinParallelAccess runs the MBR-join of step 1 [BKS 93a]: a synchronized
// depth-first traversal of both trees. At each node pair the search space
// is restricted to the intersection rectangle of the (ε-expanded) node
// regions, and qualifying entry pairs are enumerated with a plane sweep
// over the entries' order by lower x bound, which each node keeps from
// the tree's first join (or its decode) on. emit receives
// every pair of items whose key rectangles come within eps of each other
// per axis — the candidate set of the multi-step join; eps = 0 is the
// plain MBR intersection join, eps > 0 the candidate predicate of the
// within-distance join, with the slack folded into the sweep bounds.
//
// The traversal is partitioned at the subtree level: the two roots are
// paired sequentially, every qualifying pairing of root children becomes
// one task, and the tasks are fanned out over a pool of workers that
// traverse their subtree pairs independently. emit is then called
// concurrently from the worker goroutines; worker identifies the calling
// worker (0 ≤ worker < the normalized worker count), and calls with the
// same worker index are serial, so the caller can keep per-worker state
// without locks. The emission order depends on the worker count; the
// emitted multiset of pairs does not.
//
// workers ≤ 0 selects GOMAXPROCS. With one worker, a leaf root, or trees
// of height one the traversal is the sequential one: a single visitor on
// the calling goroutine, emitting with worker index 0 and touching pages
// directly through ax1 and ax2. It is the reference the partitioned
// traversal is tested against.
//
// Page visits go to the access contexts ax1 and ax2 (a tree's shared
// Buffer for single-query accounting, or per-query sessions from
// NewSession). Access contexts are not safe for concurrent use, so the
// workers record their page visits into per-task traces that are replayed
// in the sequential traversal order after the workers finish. The
// returned JoinStats and the contexts' hit/miss counters are therefore
// byte-identical for every worker count, and with sessions on both trees
// the whole join — traversal fan-out included — is safe to run
// concurrently with other queries on the same trees.
//
// Cancellation is cooperative: every node pair polls ctx.Done() without
// blocking, and no helper goroutine watches the context. Once ctx is
// cancelled the traversal stops at the next node pair, pending tasks are
// dropped, the page-trace replay is skipped, and the partial statistics
// are returned (the caller observes the cancellation via ctx.Err()). The
// caller may cancel ctx from emit, on any worker, to end the join early.
func JoinParallelAccess(ctx context.Context, t1, t2 *Tree, ax1, ax2 storage.Accessor, eps float64, workers int, emit func(worker int, a, b Item)) JoinStats {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var st JoinStats
	if t1.size == 0 || t2.size == 0 {
		return st
	}
	t1.orderEntries()
	t2.orderEntries()
	done := ctx.Done()
	if workers == 1 || t1.root.leaf || t2.root.leaf {
		v := newJoinVisit(t1, t2, &st, eps, done, func(a, b Item) { emit(0, a, b) })
		v.ax1, v.ax2 = ax1, ax2
		v.nodes(t1.root, t2.root, t1.root.bounds(), t2.root.bounds())
		v.release()
		return st
	}

	// Root pairing, sequentially: touch both roots, restrict to the
	// intersection of the (ε-expanded) root regions, and sweep the root
	// entries. Each emitted child pairing becomes one task; the task order
	// is exactly the order the sequential traversal would descend in.
	ax1.Access(t1.root.page)
	ax2.Access(t2.root.page)
	inter := t1.root.bounds().Expand(eps).Intersection(t2.root.bounds().Expand(eps))
	if inter.IsEmpty() {
		return st
	}
	js := joinScratches.Get()
	defer js.release()
	js.root.fit(t1.fanout(), t2.fanout())
	sweepPairs(t1.root, t2.root, inter, eps, &st, &js.root, func(e1, e2 *entry) {
		js.tasks = append(js.tasks, joinTask{e1.child, e2.child, e1.rect, e2.rect})
	})
	tasks, results := js.tasks, js.resultsFor(len(js.tasks))

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One visitor per worker: the sweep scratch is reused across
			// every task the worker processes.
			v := newJoinVisit(t1, t2, nil, eps, done, func(a, b Item) { emit(w, a, b) })
			defer v.release()
			for {
				if cancelled(done) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				res := &results[i]
				v.st = &res.st
				v.trace1, v.trace2 = &res.trace1, &res.trace2
				v.nodes(tasks[i].n1, tasks[i].n2, tasks[i].b1, tasks[i].b2)
			}
		}(w)
	}
	wg.Wait()
	if ctx.Err() != nil {
		// Cancelled: the partial traces would not reproduce any sequential
		// state; the caller discards the statistics along with the error.
		return st
	}

	// Merge the per-task statistics and replay the page traces in task
	// order. Every statistic is a sum, so the merge is deterministic; the
	// replay reproduces the sequential access sequence, so the access
	// contexts end in the same state with the same hit/miss counts.
	for i := range results {
		res := &results[i]
		st.Pairs += res.st.Pairs
		st.RectTests += res.st.RectTests
		st.LeafTests += res.st.LeafTests
		for _, pid := range res.trace1 {
			ax1.Access(pid)
		}
		for _, pid := range res.trace2 {
			ax2.Access(pid)
		}
	}
	return st
}

// joinTask is one pairing of root children: a subtree pair one worker
// traverses.
type joinTask struct {
	n1, n2 *node
	b1, b2 geom.Rect
}

// taskResult is what the traversal of one task leaves for the merge: its
// statistics and its page traces.
type taskResult struct {
	st             JoinStats
	trace1, trace2 []storage.PageID
}

// joinScratch is the per-join state of the partitioned traversal: the
// root pairing's sweep scratch, the task list and the per-task results.
// It comes from a free list and every slice keeps its capacity, the
// traces' included, so a warmed join grows none of it: task i of a join
// leaves a trace the length task i of the last identical join left.
type joinScratch struct {
	root    sweepScratch
	tasks   []joinTask
	results []taskResult
}

var joinScratches freelist.List[joinScratch]

// resultsFor returns n empty task results, reusing every earlier result's
// trace buffers.
func (js *joinScratch) resultsFor(n int) []taskResult {
	rs := js.results[:cap(js.results)]
	if n > len(rs) {
		rs = append(rs, make([]taskResult, n-len(rs))...)
	}
	rs = rs[:n]
	for i := range rs {
		rs[i] = taskResult{trace1: rs[i].trace1[:0], trace2: rs[i].trace2[:0]}
	}
	js.results = rs
	return rs
}

// release returns the scratch to the free list. The task list is
// cleared first: nothing empties a free list, so a task left in it would
// keep a replaced tree's nodes reachable.
func (js *joinScratch) release() {
	clear(js.tasks)
	js.tasks = js.tasks[:0]
	pages := 0
	for _, r := range js.results[:cap(js.results)] {
		pages += cap(r.trace1) + cap(r.trace2)
	}
	joinScratches.Put(js, cap(js.tasks)*int(unsafe.Sizeof(joinTask{}))+pages*int(unsafe.Sizeof(storage.PageID(0))))
}
