package multistep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/bitset"
	"spatialjoin/internal/ctxpoll"
	"spatialjoin/internal/ops"
	"spatialjoin/internal/resilience"
	"spatialjoin/internal/resilience/fault"
	"spatialjoin/internal/rstar"
	"spatialjoin/internal/storage"
)

// This file is the shared-work entry point of the multi-query execution
// layer: N join requests over the same relation pair execute as ONE
// synchronized R*-tree traversal that evaluates every request's
// candidate pretest per rectangle-test survivor, then demultiplexes the
// per-request filter/exact classification through the worker pool.
//
// The equivalence bar (and why it holds): each request's pairs and
// candidate-level Stats must match its solo run exactly.
//
//   - Step 1: all requests in a batch share one step-1 ε, so the
//     synchronized traversal — rectangle tests, node schedule, page
//     trace — is identical to each request's solo traversal. The
//     traversal statistics and page accesses are worker-count
//     independent by construction (see joinStream), so every request
//     reports the solo MBRJoin and PageAccesses values.
//   - Candidates: the per-request pretest (MBR nesting for inclusion
//     joins) is applied per request to each survivor, producing exactly
//     the solo candidate set and count for each request.
//   - Steps 2+3: each candidate carries a bitmask of the requests it
//     belongs to; workers classify it once per member request under
//     that request's configuration and predicate, accumulating
//     per-request per-worker counters that merge into scheduling-
//     independent totals exactly as the solo pipeline's do.
//
// Requests whose step-1 ε differs cannot share a traversal and are
// rejected; the caller (internal/mqe's batching window keyed by
// relation pair + ε) never groups them.

// MaxBatchItems is the hard cap on requests per batched traversal: one
// bit per request in the candidate mask. Coordinators (internal/shard's
// batched scatter-gather) chunk larger groups into successive batches.
const MaxBatchItems = 64

// Batch-path errors.
var (
	// ErrBatchMismatch reports requests that cannot share one traversal:
	// different step-1 ε, or a step-1 generator other than the
	// synchronized R*-tree traversal.
	ErrBatchMismatch = errors.New("multistep: batched joins must share the R*-tree step-1 traversal and its ε")
	// ErrBatchTooLarge reports more than MaxBatchItems requests.
	ErrBatchTooLarge = fmt.Errorf("multistep: batched join exceeds %d requests", MaxBatchItems)
	// ErrBatchStream reports a WithStream request in a batch; batched
	// execution always collects.
	ErrBatchStream = errors.New("multistep: WithStream is not supported in a batched join")
)

// BatchResult is one request's outcome from JoinBatch: exactly what the
// corresponding solo Join would have returned.
type BatchResult struct {
	Pairs []Pair
	Stats Stats
}

// batchJoin is the resolved execution state of one request in a batch.
type batchJoin struct {
	o       queryOptions
	cfg     Config
	pl      Plan
	collect bool
}

// JoinBatch runs up to MaxBatchItems join requests over the relation
// pair (r, s) as one synchronized traversal and returns each request's
// solo-exact result, in request order. Page visits are accounted on the
// shared accessors axR and axS (nil selects the shared tree buffers,
// counters reset first, as in Join): because the traversal trace is
// deterministic and replayed once, every request observes exactly the
// page accesses of a solo run on the same accessor snapshot. Per-item
// WithSessions options are overridden by axR/axS.
//
// All requests must resolve to the R*-tree step-1 generator and agree
// on the step-1 ε (the predicate's traversal expansion); WithStream is
// not supported. WithPlan, WithExplain, WithConfig, WithWorkers,
// WithLimit and WithBufferless keep their solo semantics per request —
// the shared pipeline runs with the largest requested worker count,
// which is invisible in the statistics. Explain wall time is the
// batch's, since the work is genuinely shared.
func JoinBatch(ctx context.Context, r, s *Relation, axR, axS storage.Accessor, items [][]Option) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(items) == 0 {
		return nil, nil
	}
	if len(items) > MaxBatchItems {
		return nil, ErrBatchTooLarge
	}

	js := make([]batchJoin, len(items))
	for i, opts := range items {
		o := resolve(opts)
		if err := o.pred.validate(); err != nil {
			return nil, err
		}
		if o.emit != nil {
			return nil, ErrBatchStream
		}
		cfg, err := joinConfig(r, s, &o)
		if err != nil {
			return nil, err
		}
		var pl Plan
		switch {
		case o.planned:
			cfg, o.workers, pl = planJoin(r, s, cfg, &o)
		case o.explain != nil:
			pl = echoPlan(cfg, &o)
		}
		if cfg.Step1 != Step1RStar {
			return nil, ErrBatchMismatch
		}
		if i > 0 && o.pred.step1Eps() != js[0].o.pred.step1Eps() {
			return nil, ErrBatchMismatch
		}
		js[i] = batchJoin{o: o, cfg: cfg, pl: pl, collect: !o.bufferless}
	}

	var started time.Time
	for i := range js {
		if js[i].o.explain != nil {
			started = time.Now()
			break
		}
	}

	results, err := joinStreamBatch(ctx, r, s, js, axR, axS)
	elapsed := time.Since(started)
	for i := range js {
		it := &js[i]
		if err == nil {
			observeJoin(r, s, it.cfg, it.o.pred, it.pl, results[i].Stats)
		}
		if it.o.explain != nil {
			// On error there are no per-item results; the explain records
			// the plan with zero actuals, marked not executed.
			var st Stats
			if err == nil {
				st = results[i].Stats
			}
			fillExplain(it.o.explain, it.pl, st, elapsed, err == nil)
		}
	}
	if err != nil {
		return nil, err
	}
	for i := range js {
		it := &js[i]
		if it.collect {
			sortResponse(results[i].Pairs)
			if it.o.limit >= 0 && len(results[i].Pairs) > it.o.limit {
				results[i].Pairs = results[i].Pairs[:it.o.limit]
			}
		}
	}
	return results, nil
}

// batchCand is one rectangle-test survivor with the set of requests it
// is a candidate for, as a bitmask over the batch items.
type batchCand struct {
	a, b int32
	mask uint64
}

// batchPair is one decided response pair tagged with its request.
type batchPair struct {
	item int32
	p    Pair
}

// batchWorkerItem accumulates one worker's share of one request's
// steps 2+3 statistics — the batched counterpart of streamWorker.
type batchWorkerItem struct {
	hits, falseHits    int64
	exactTested        int64
	exactHits          int64
	ops                ops.Counters
	fetchedR, fetchedS *bitset.Set
}

// joinStreamBatch is the batched counterpart of joinStream: one
// traversal, a mask per candidate, per-(worker, request) statistics
// merged per request exactly like the solo pipeline's per-worker merge.
func joinStreamBatch(ctx context.Context, r, s *Relation, js []batchJoin, axR, axS storage.Accessor) ([]BatchResult, error) {
	// Shared pipeline shape: the largest requested worker count (each
	// request's stats are worker-count independent), default batch size
	// and queue depth.
	shape := js[0].o
	for i := range js {
		d := js[i].o.withDefaults()
		if d.workers > shape.workers {
			shape.workers = d.workers
		}
	}
	shape.batch, shape.queue = 0, 0
	shape = shape.withDefaults()

	if axR == nil {
		r.Tree.Buffer().ResetCounters()
		axR = r.Tree.Buffer()
	}
	if axS == nil {
		s.Tree.Buffer().ResetCounters()
		axS = s.Tree.Buffer()
	}
	missesR, missesS := axR.Misses(), axS.Misses()

	// A worker panic or fired injection cancels the whole batched
	// traversal with its cause; every request in the batch fails
	// together (joins fail closed).
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)

	stop, release := ctxpoll.Stop(ctx)
	defer release()
	stopCh := ctx.Done()

	candCh := make(chan []batchCand, shape.queue)
	resCh := make(chan []batchPair, shape.queue)

	send := func(buf []batchCand) {
		select {
		case candCh <- buf:
		case <-stopCh:
		}
	}

	// Steps 2+3: the worker pool, one counter block per (worker, item).
	nItems := len(js)
	workerStates := make([][]batchWorkerItem, shape.workers)
	var wg sync.WaitGroup
	for w := 0; w < shape.workers; w++ {
		wg.Add(1)
		go func(states *[]batchWorkerItem) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					fail(resilience.Recovered("exact", rec))
				}
			}()
			ws := make([]batchWorkerItem, nItems)
			for i := range ws {
				ws[i].fetchedR = bitset.New(len(r.Objects))
				ws[i].fetchedS = bitset.New(len(s.Objects))
			}
			*states = ws
			for batch := range candCh {
				out := make([]batchPair, 0, len(batch))
				for _, c := range batch {
					if stop != nil && stop() {
						break
					}
					oa, ob := r.Objects[c.a], s.Objects[c.b]
					for i := 0; i < nItems; i++ {
						if c.mask&(1<<uint(i)) == 0 {
							continue
						}
						it := &js[i]
						wi := &ws[i]
						// Step 2: this request's geometric filter, once
						// per (candidate, request).
						if it.cfg.UseFilter {
							switch it.o.pred.classify(it.cfg.Filter, oa, ob) {
							case approx.Hit:
								wi.hits++
								out = append(out, batchPair{int32(i), Pair{A: c.a, B: c.b}})
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
							return
						}
						if it.o.pred.exactDecide(it.cfg, oa, ob, &wi.ops) {
							wi.exactHits++
							out = append(out, batchPair{int32(i), Pair{A: c.a, B: c.b}})
						}
					}
				}
				if len(out) > 0 {
					select {
					case resCh <- out:
					case <-stopCh:
					}
				}
			}
		}(&workerStates[w])
	}

	// The collector counts decided pairs per request and keeps the
	// batches; they are demultiplexed once the pipeline has drained and
	// every response's size is known.
	results := make([]BatchResult, nItems)
	var decided [][]batchPair
	done := make(chan struct{})
	go func() {
		defer close(done)
		for batch := range resCh {
			for _, bp := range batch {
				results[bp.item].Stats.ResultPairs++
			}
			decided = append(decided, batch)
		}
	}()

	// Step 1: one synchronized traversal at the shared ε; per survivor,
	// the mask of requests whose pretest admits it. Candidate counting
	// stays producer-side per traversal worker, as in the solo pipeline.
	eps := js[0].o.pred.step1Eps()
	batches := make([][]batchCand, shape.workers)
	cands := make([][]int64, shape.workers)
	for w := range cands {
		cands[w] = make([]int64, nItems)
	}
	mbrSt := rstar.JoinParallelAccess(ctx, r.Tree, s.Tree, axR, axS, eps, shape.workers, func(w int, a, b rstar.Item) {
		oa, ob := r.Objects[a.ID], s.Objects[b.ID]
		var mask uint64
		for i := 0; i < nItems; i++ {
			if js[i].o.pred.pretest(oa, ob) {
				mask |= 1 << uint(i)
				cands[w][i]++
			}
		}
		if mask == 0 {
			return
		}
		if batches[w] == nil {
			batches[w] = make([]batchCand, 0, shape.batch)
		}
		batches[w] = append(batches[w], batchCand{a.ID, b.ID, mask})
		if len(batches[w]) >= shape.batch {
			send(batches[w])
			batches[w] = nil
		}
	})
	for _, b := range batches {
		if len(b) > 0 {
			send(b)
		}
	}
	close(candCh)
	wg.Wait()
	close(resCh)
	<-done

	if ctx.Err() != nil {
		// Cause surfaces an internal failure (worker panic, fired
		// injection); for the caller's own cancellation it reproduces
		// ctx.Err().
		return nil, context.Cause(ctx)
	}

	// Per-request deterministic merge: sums and bitset unions over the
	// worker shares, identical in shape to the solo pipeline's; the
	// response sets are allocated at exactly their size (callers cache
	// them).
	for i := range js {
		if n := results[i].Stats.ResultPairs; n > 0 && js[i].collect {
			results[i].Pairs = make([]Pair, 0, n)
		}
	}
	for _, batch := range decided {
		for _, bp := range batch {
			if js[bp.item].collect {
				results[bp.item].Pairs = append(results[bp.item].Pairs, bp.p)
			}
		}
	}
	pagesR, pagesS := axR.Misses()-missesR, axS.Misses()-missesS
	for i := range js {
		st := &results[i].Stats
		st.MBRJoin = mbrSt
		for w := range cands {
			st.CandidatePairs += cands[w][i]
		}
		unionR := bitset.New(len(r.Objects))
		unionS := bitset.New(len(s.Objects))
		for w := range workerStates {
			wi := &workerStates[w][i]
			st.FilterHits += wi.hits
			st.FilterFalseHits += wi.falseHits
			st.ExactTested += wi.exactTested
			st.ExactHits += wi.exactHits
			st.Ops.Add(wi.ops)
			unionR.Or(wi.fetchedR)
			unionS.Or(wi.fetchedS)
		}
		st.ObjectFetches = int64(unionR.Count() + unionS.Count())
		st.PageAccessesR = pagesR
		st.PageAccessesS = pagesS
	}
	return results, nil
}
