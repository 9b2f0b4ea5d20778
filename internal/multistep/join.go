package multistep

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/bitset"
	"spatialjoin/internal/ctxpoll"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/ops"
	"spatialjoin/internal/resilience"
	"spatialjoin/internal/resilience/fault"
	"spatialjoin/internal/rstar"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/zorder"
)

// This file is the join driver of the package — the only one. N ≥ 1 join
// requests over the same relation pair execute as ONE step 1 candidate
// generation; every candidate carries a bitmask of the requests it is a
// candidate for, and the worker pool classifies it once per member
// request. Join is the one-request case and JoinBatch the general one:
// nothing in the pipeline asks how many requests there are, so a solo
// join is not a second code path that could drift from the batched one.
//
// The equivalence bar (and why it holds): each request's pairs and
// Stats must match its solo run exactly.
//
//   - Step 1: all requests share one step-1 ε, so the synchronized
//     traversal — rectangle tests, node schedule, page trace — is the
//     one each request would run alone, and every request reports its
//     MBRJoin and PageAccesses values.
//   - Candidates: the per-request pretest (MBR nesting for inclusion
//     joins) is applied per request to each rectangle-test survivor and
//     sets the request's mask bit, producing exactly the solo candidate
//     set and count for each request.
//   - Steps 2+3: workers classify a candidate once per mask bit under
//     that request's configuration and predicate, accumulating
//     per-(worker, request) counters. Every counter is a sum and the
//     fetched-object sets are unions, so the per-request merge does not
//     depend on how candidates were spread over the workers.
//
// Two things only a single request can mean are admitted for one item
// and rejected for more: emission through WithStream (one emitter cannot
// demultiplex several response sets) and the Z-order and nested-loops
// step 1 generators (measurement baselines of the paper, not serving
// paths). Requests whose step-1 ε differs cannot share a traversal and
// are rejected; the caller (internal/mqe's batching window keyed by
// relation pair + ε) never groups them.

// MaxBatchItems is the hard cap on requests per traversal: one bit per
// request in the candidate mask. Coordinators (internal/shard's
// scatter-gather) chunk larger groups into successive batches.
const MaxBatchItems = 64

// Batch-path errors.
var (
	// ErrBatchMismatch reports requests that cannot share one traversal:
	// different step-1 ε, or a step-1 generator other than the
	// synchronized R*-tree traversal.
	ErrBatchMismatch = errors.New("multistep: batched joins must share the R*-tree step-1 traversal and its ε")
	// ErrBatchTooLarge reports more than MaxBatchItems requests.
	ErrBatchTooLarge = fmt.Errorf("multistep: batched join exceeds %d requests", MaxBatchItems)
	// ErrBatchStream reports a WithStream request in a batch of two or
	// more; only a single request can stream.
	ErrBatchStream = errors.New("multistep: WithStream is not supported in a batched join")
)

// The pipeline shape: candidate pairs per batch, and the bounded depth of
// the candidate and result channels in batches per worker. Together they
// cap the in-flight memory at O((queue + 2·workers)·batch) candidate
// pairs — the pipeline never materializes the candidate set. Larger
// batches amortize channel traffic, smaller ones lower latency and peak
// memory; no caller ever needed other values. Variables only so that the
// back-pressure test can shrink them.
var (
	batchPairs     = 256
	queuePerWorker = 4
)

// BatchResult is one request's outcome from JoinBatch: exactly what the
// corresponding solo Join would have returned.
type BatchResult struct {
	Pairs []Pair
	Stats Stats
}

// joinItem is the resolved execution state of one request.
type joinItem struct {
	o   Resolved
	cfg Config
	pl  Plan
}

// collects reports whether the request wants its response set returned.
func (it *joinItem) collects() bool { return it.o.Stream == nil && !it.o.Bufferless }

// Join runs the multi-step spatial join of r and s under the configured
// predicate (default Intersects) and returns the response set sorted by
// (A, B) along with the per-step statistics. Every statistic is
// independent of the worker count and of streaming by construction, so
// one entry point serves measurement and production alike.
//
// Cancellation: when ctx is cancelled, the step 1 traversal workers, the
// filter/exact pool and the collector all stop at their next check and
// Join returns ctx.Err().
//
// Accounting: without WithSessions the page accounting runs on the shared
// tree buffers (counters reset first) — the paper's sequential mode, one
// query at a time. With per-query sessions on both sides the join is
// fully concurrent-safe.
func Join(ctx context.Context, r, s *Relation, opts ...Option) ([]Pair, Stats, error) {
	o := ResolveOptions(opts)
	res, err := JoinBatch(ctx, r, s, o.AxR, o.AxS, []Resolved{o})
	if err != nil {
		return nil, Stats{}, err
	}
	return res[0].Pairs, res[0].Stats, nil
}

// JoinBatch runs up to MaxBatchItems join requests over the relation
// pair (r, s) as one synchronized traversal and returns each request's
// solo-exact result, in request order. Page visits are accounted on the
// shared accessors axR and axS (nil selects the shared tree buffers,
// counters reset first, as in Join): because the traversal trace is
// deterministic and replayed once, every request observes exactly the
// page accesses of a solo run on the same accessor snapshot. The items'
// own AxR/AxS are ignored.
//
// Two or more requests must resolve to the R*-tree step-1 generator,
// agree on the step-1 ε (the predicate's traversal expansion) and not
// stream. WithPlan, WithExplain, WithConfig, WithWorkers, WithLimit and
// WithBufferless keep their solo semantics per request — the shared
// pipeline runs with the largest requested worker count, which is
// invisible in the statistics. Explain wall time is the batch's, since
// the work is genuinely shared. Items are resolved option sets
// (ResolveOptions): a coordinator resolves each request once and passes
// per-relation-pair copies.
//
// It is the prologue and epilogue every join goes through, around the
// one pipeline: validate and plan each request, execute them together,
// then feed the planner, fill the explains, and sort and cut each
// collected response.
func JoinBatch(ctx context.Context, r, s *Relation, axR, axS storage.Accessor, os []Resolved) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(os) == 0 {
		return nil, nil
	}
	if len(os) > MaxBatchItems {
		return nil, ErrBatchTooLarge
	}
	js := make([]joinItem, len(os))
	explained := false
	for i, o := range os {
		if err := o.Pred.Validate(); err != nil {
			return nil, err
		}
		cfg, err := joinConfig(r, s, &o)
		if err != nil {
			return nil, err
		}
		// Adaptive planning: WithPlan resolves the dimensions the caller
		// left open (engine, filter, workers) through internal/plan; pinned
		// dimensions pass through unchanged, so explicit options win.
		var pl Plan
		switch {
		case o.Plan:
			cfg, o.Workers, pl = planJoin(r, s, cfg, &o)
		case o.Explain != nil:
			pl = echoPlan(cfg, &o)
		}
		if len(os) > 1 {
			if o.Stream != nil {
				return nil, ErrBatchStream
			}
			if cfg.Step1 != Step1RStar || o.Pred.step1Eps() != os[0].Pred.step1Eps() {
				return nil, ErrBatchMismatch
			}
		}
		explained = explained || o.Explain != nil
		js[i] = joinItem{o: o, cfg: cfg, pl: pl}
	}

	var started time.Time
	if explained {
		started = time.Now()
	}
	results, err := joinPipeline(ctx, r, s, js, axR, axS)
	elapsed := time.Since(started)
	for i := range js {
		it := &js[i]
		// On error there are no per-item results; an explain then records
		// the plan with zero actuals, marked not executed.
		var st Stats
		if err == nil {
			st = results[i].Stats
			observeJoin(r, s, it.cfg, it.o.Pred, it.pl, st)
		}
		if it.o.Explain != nil {
			fillExplain(it.o.Explain, it.pl, st, elapsed, err == nil)
		}
	}
	if err != nil {
		return nil, err
	}
	for i := range js {
		if js[i].collects() {
			sortResponse(results[i].Pairs)
			if limit := js[i].o.Limit; limit >= 0 && len(results[i].Pairs) > limit {
				results[i].Pairs = results[i].Pairs[:limit]
			}
		}
	}
	return results, nil
}

// sortResponse orders a response set by (A, B) — the canonical order of
// the collected join result. Pairs are unique, so the (A, B) comparison
// is a total order and the typed sort returns the identical sequence the
// reflection-based sort did.
func sortResponse(ps []Pair) {
	slices.SortFunc(ps, func(p, q Pair) int {
		switch {
		case p.A != q.A:
			return int(p.A - q.A)
		default:
			return int(p.B - q.B)
		}
	})
}

// maskedCand is one candidate pair in flight between step 1 and step 2:
// a rectangle-test survivor with the set of requests whose pretest
// admits it, as a bitmask over the items.
type maskedCand struct {
	a, b int32
	mask uint64
}

// itemPair is one decided response pair tagged with its request.
type itemPair struct {
	item int32
	p    Pair
}

// candBatchPool and pairBatchPool recycle the pipeline's batch buffers:
// the channels carry *[]T so a drained batch returns to the pool with its
// backing array AND its box, making the steady-state batch traffic
// allocation-free. Batches abandoned on cancellation simply fall to the
// garbage collector.
var (
	candBatchPool = sync.Pool{New: func() any { return new([]maskedCand) }}
	pairBatchPool = sync.Pool{New: func() any { return new([]itemPair) }}
)

// workerShare accumulates one worker's share of one request's steps 2+3
// statistics; the shares are merged deterministically after the pipeline
// drains. The fetched-object sets are bitsets over the dense object
// indexes — one bit per object instead of a hash-set entry per fetch.
type workerShare struct {
	hits, falseHits    int64
	exactTested        int64
	exactHits          int64
	ops                ops.Counters
	fetchedR, fetchedS *bitset.Set
}

// joinPipeline executes the resolved requests js as one streaming, fully
// parallel pipeline:
//
//	step 1  — the candidate generator runs as the producer; with the
//	          R*-tree generator the synchronized traversal itself is
//	          partitioned at the subtree level over the workers
//	          (rstar.JoinParallelAccess), evaluating the (possibly
//	          ε-expanded) rectangle test; each survivor gets the mask of
//	          the requests whose candidate pretest admits it.
//	steps 2+3 — candidate batches flow through a bounded channel into a
//	          pool of workers that, per mask bit, classify the pair with
//	          that request's geometric filter (once) and decide the
//	          survivors on its exact geometry test.
//
// A single collector goroutine counts the decided pairs per request and
// either hands them to the (one-item) WithStream emitter, one pair at a
// time and in no particular order, or keeps the result batches until the
// pipeline has drained and every collecting request's response can be
// copied out once, into a slice of exactly its size. Without a collecting
// request the memory stays bounded by the channel depths regardless of
// the candidate-set size.
//
// Cancellation: the traversal workers poll the context at every node
// pair, the producers at every batch boundary, and the filter/exact pool
// at every pair; a cancelled context drains the pipeline without further
// work and surfaces ctx.Err(). A worker that panics (a bug in an exact
// kernel, or an injected fault) or hits a fired "exact" injection cancels
// the pipeline with itself as the cause — the failure is contained to
// these requests, which fail together (joins fail closed), instead of
// killing the process.
func joinPipeline(ctx context.Context, r, s *Relation, js []joinItem, axR, axS storage.Accessor) ([]BatchResult, error) {
	// The largest requested worker count serves every request: their
	// statistics are worker-count independent.
	n, workers := len(js), 0
	for i := range js {
		workers = max(workers, effectiveWorkers(js[i].o.Workers))
	}

	if axR == nil {
		r.Tree.Buffer().ResetCounters()
		axR = r.Tree.Buffer()
	}
	if axS == nil {
		s.Tree.Buffer().ResetCounters()
		axS = s.Tree.Buffer()
	}
	missesR, missesS := axR.Misses(), axS.Misses()

	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	stop, release := ctxpoll.Stop(ctx)
	defer release()
	stopCh := ctx.Done() // nil for uncancellable contexts: a select then blocks on its send alone

	candCh := make(chan *[]maskedCand, queuePerWorker*workers)
	resCh := make(chan *[]itemPair, queuePerWorker*workers)

	// Steps 2+3: the worker pool, one counter block per (worker, item).
	shares := make([][]workerShare, workers)
	var wg sync.WaitGroup
	for w := range shares {
		wg.Add(1)
		go func(mine *[]workerShare) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					fail(resilience.Recovered("exact", rec))
				}
			}()
			ws := make([]workerShare, n)
			for i := range ws {
				ws[i].fetchedR = bitset.New(len(r.Objects))
				ws[i].fetchedS = bitset.New(len(s.Objects))
			}
			*mine = ws
			for bp := range candCh {
				op := pairBatchPool.Get().(*[]itemPair)
				out := (*op)[:0]
			cands:
				for _, c := range *bp {
					if stop != nil && stop() {
						break
					}
					oa, ob := r.Objects[c.a], s.Objects[c.b]
					for i := range js {
						if c.mask&(1<<uint(i)) == 0 {
							continue
						}
						it, wi := &js[i], &ws[i]
						// Step 2: this request's geometric filter, evaluated
						// exactly once per (candidate, request).
						if it.cfg.UseFilter {
							switch it.o.Pred.classify(it.cfg.Filter, oa, ob) {
							case approx.Hit:
								wi.hits++
								out = append(out, itemPair{int32(i), Pair{A: c.a, B: c.b}})
								continue
							case approx.FalseHit:
								wi.falseHits++
								continue
							}
						}
						// Step 3: this request's exact geometry test.
						wi.exactTested++
						wi.fetchedR.Set(int(c.a))
						wi.fetchedS.Set(int(c.b))
						if ferr := fault.Check("exact"); ferr != nil {
							fail(ferr)
							break cands
						}
						if it.o.Pred.exactDecide(it.cfg, oa, ob, &wi.ops) {
							wi.exactHits++
							out = append(out, itemPair{int32(i), Pair{A: c.a, B: c.b}})
						}
					}
				}
				*bp = (*bp)[:0]
				candBatchPool.Put(bp)
				*op = out
				if len(out) == 0 {
					pairBatchPool.Put(op)
					continue
				}
				select {
				case resCh <- op:
				case <-stopCh:
				}
			}
		}(&shares[w])
	}

	// The collector serializes counting and emission of the decided pairs.
	results := make([]BatchResult, n)
	collecting := slices.ContainsFunc(js, func(it joinItem) bool { return it.collects() })
	emit := js[0].o.Stream // JoinBatch admits an emitter on a single request only
	var held []*[]itemPair
	done := make(chan struct{})
	go func() {
		defer close(done)
		for op := range resCh {
			for _, ip := range *op {
				results[ip.item].Stats.ResultPairs++
				if emit != nil {
					emit(ip.p)
				}
			}
			if collecting {
				held = append(held, op)
				continue
			}
			*op = (*op)[:0]
			pairBatchPool.Put(op)
		}
	}()

	// Step 1: the candidate producer, on the calling goroutine. offer takes
	// one rectangle-test survivor from generator worker w (calls with the
	// same w are serial, so the per-worker batch buffers and candidate
	// counters need no locks) and queues it under the mask of the requests
	// whose pretest admits it. Candidate counting happens here, producer-
	// side: the counts are pure sums, so the merge is scheduling-independent.
	eps := js[0].o.Pred.step1Eps()
	batches := make([]*[]maskedCand, workers)
	cands := make([]int64, workers*n) // [w*n+i]: worker w's candidates of request i
	send := func(bp *[]maskedCand) {
		select {
		case candCh <- bp:
		case <-stopCh: // abandoned: the workers are draining by then
		}
	}
	offer := func(w int, a, b int32) {
		oa, ob := r.Objects[a], s.Objects[b]
		var mask uint64
		for i := range js {
			if js[i].o.Pred.pretest(oa, ob) {
				mask |= 1 << uint(i)
				cands[w*n+i]++
			}
		}
		if mask == 0 {
			return
		}
		bp := batches[w]
		if bp == nil {
			bp = candBatchPool.Get().(*[]maskedCand)
			batches[w] = bp
		}
		*bp = append(*bp, maskedCand{a, b, mask})
		if len(*bp) >= batchPairs {
			send(bp)
			batches[w] = nil
		}
	}
	var mbrSt rstar.JoinStats
	var zCands int64
	switch js[0].cfg.Step1 {
	case Step1RStar:
		mbrSt = rstar.JoinParallelAccess(ctx, r.Tree, s.Tree, axR, axS, eps, workers, func(w int, a, b rstar.Item) {
			offer(w, a.ID, b.ID)
		})
	case Step1ZOrder:
		// Space-filling-curve sort-merge: the Z covers of the ε-expanded
		// R-side MBRs yield a candidate superset; the (ε-expanded) MBR
		// test removes the quantization false positives before the
		// geometric filter sees the pair.
		mbrsR := make([]geom.Rect, len(r.Objects))
		space := geom.EmptyRect()
		for i, o := range r.Objects {
			mbrsR[i] = o.Approx.MBR.Expand(eps)
			space = space.Union(mbrsR[i])
		}
		mbrsS := make([]geom.Rect, len(s.Objects))
		for i, o := range s.Objects {
			mbrsS[i] = o.Approx.MBR
			space = space.Union(mbrsS[i])
		}
		zcfg := zorder.DefaultCoverConfig()
		zcfg.DataSpace = space // both relations must be fully covered
		zorder.Join(mbrsR, mbrsS, zcfg, func(i, j int) {
			if stop != nil && stop() {
				return
			}
			zCands++
			if mbrsR[i].Intersects(mbrsS[j]) {
				offer(0, int32(i), int32(j))
			}
		})
	case Step1NestedLoops:
		for _, oa := range r.Objects {
			if stop != nil && stop() {
				break
			}
			grown := oa.Approx.MBR.Expand(eps)
			for _, ob := range s.Objects {
				if grown.Intersects(ob.Approx.MBR) {
					offer(0, oa.ID, ob.ID)
				}
			}
		}
	default:
		panic("multistep: unknown step 1 generator")
	}
	for _, bp := range batches {
		if bp != nil {
			send(bp)
		}
	}
	close(candCh)
	wg.Wait()
	close(resCh)
	<-done

	if ctx.Err() != nil {
		// Cause distinguishes an internal failure (worker panic, fired
		// injection) from the caller's own cancellation, for which it
		// reproduces ctx.Err().
		return nil, context.Cause(ctx)
	}

	// Per-request deterministic merge: the response sets are allocated at
	// exactly their size (callers cache them), every counter is a sum and
	// the fetch sets are unions (word-wise ORs of the per-worker bitsets).
	for i := range js {
		if size := results[i].Stats.ResultPairs; size > 0 && js[i].collects() {
			results[i].Pairs = make([]Pair, 0, size)
		}
	}
	for _, op := range held {
		for _, ip := range *op {
			if js[ip.item].collects() {
				results[ip.item].Pairs = append(results[ip.item].Pairs, ip.p)
			}
		}
		*op = (*op)[:0]
		pairBatchPool.Put(op)
	}
	pagesR, pagesS := axR.Misses()-missesR, axS.Misses()-missesS
	for i := range js {
		st := &results[i].Stats
		st.MBRJoin = mbrSt
		st.ZOrderCandidates = zCands
		st.PageAccessesR, st.PageAccessesS = pagesR, pagesS
		unionR := bitset.New(len(r.Objects))
		unionS := bitset.New(len(s.Objects))
		for w := range shares {
			st.CandidatePairs += cands[w*n+i]
			wi := &shares[w][i]
			st.FilterHits += wi.hits
			st.FilterFalseHits += wi.falseHits
			st.ExactTested += wi.exactTested
			st.ExactHits += wi.exactHits
			st.Ops.Add(wi.ops)
			unionR.Or(wi.fetchedR)
			unionS.Or(wi.fetchedS)
		}
		st.ObjectFetches = int64(unionR.Count() + unionS.Count())
	}
	return results, nil
}
