package multistep

import (
	"unsafe"

	"spatialjoin/internal/freelist"
)

// OrderPairs writes the pairs of runs as one collected response: the
// runs concatenated, ordered by (A, B), adjacent duplicates dropped, and
// cut to the first limit pairs (limit < 0: all). Every A must lie in
// [0, nA) and every B in [0, nB) — object IDs index their relation's
// object table.
//
// It is a counting sort in two stable passes over the ID ranges, first by
// B, then by A, so it takes O(total + nA + nB) time however the pairs are
// skewed, and compares no pair. The response goes into out when out is
// non-nil and has room for it — out may be the caller's own run: the
// runs are read before it is written — and otherwise into a new slice of
// exactly min(unique pairs, limit), which a cache can account for by its
// length.
func OrderPairs(runs [][]Pair, nA, nB, limit int, out []Pair) []Pair {
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	if total == 0 {
		return nil
	}
	sc := pairScratches.Get()
	defer func() {
		pairScratches.Put(sc, 4*(cap(sc.starts)+cap(sc.last))+cap(sc.tmp)*int(unsafe.Sizeof(Pair{})))
	}()
	sc.starts = resize(sc.starts, max(nA, nB)+1)
	sc.last = resize(sc.last, nA)
	sc.tmp = resize(sc.tmp, total)

	// Pass 1, by B: count (starts[b+1] counts b), turn the counts into
	// bucket starts, and scatter the runs into tmp in run order.
	starts, tmp := sc.starts[:nB+1], sc.tmp
	clear(starts)
	for _, run := range runs {
		for _, p := range run {
			starts[p.B+1]++
		}
	}
	prefixSums(starts)
	for _, run := range runs {
		for _, p := range run {
			tmp[starts[p.B]] = p
			starts[p.B]++
		}
	}

	// Pass 2, by A. Within an A bucket the pairs arrive by ascending B, so
	// a duplicate is a pair whose B equals the last one its A kept; it is
	// marked (A = -1) and takes no slot, so the bucket starts are final
	// positions and the cut is a bound on them.
	starts, last := sc.starts[:nA+1], sc.last
	clear(starts)
	for i := range last {
		last[i] = -1
	}
	for i, p := range tmp {
		if last[p.A] == p.B {
			tmp[i].A = -1
			continue
		}
		last[p.A] = p.B
		starts[p.A+1]++
	}
	prefixSums(starts)
	n := int(starts[nA])
	if limit >= 0 {
		n = min(n, limit)
	}
	if out == nil || cap(out) < n {
		out = make([]Pair, n)
	}
	out = out[:n]
	for _, p := range tmp {
		if p.A < 0 {
			continue
		}
		if k := starts[p.A]; int(k) < n {
			out[k] = p
		}
		starts[p.A]++
	}
	return out
}

// prefixSums turns counts shifted by one (c[k+1] counts key k) into
// bucket starts: c[k] becomes the number of keys below k.
func prefixSums(c []int32) {
	for k := 1; k < len(c); k++ {
		c[k] += c[k-1]
	}
}

// pairScratch is OrderPairs' working memory: the bucket starts, the last
// B per A, and the pairs ordered by B.
type pairScratch struct {
	starts, last []int32
	tmp          []Pair
}

// pairScratches keeps OrderPairs' scratch between calls, so a warmed
// caller allocates only its response.
var pairScratches freelist.List[pairScratch]

// resize returns s with length n, reallocated only when it is too short.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}
