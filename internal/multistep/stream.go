package multistep

import (
	"context"
	"runtime"
	"sync"

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

// StreamOptions tunes the streaming join pipeline.
//
// Deprecated: the fields map onto options of the unified Join entry
// point — Workers → WithWorkers, Batch → WithBatch, Queue → WithQueue,
// AccessR/AccessS → WithSessions. The type remains for the facade's
// deprecated JoinStream wrapper.
type StreamOptions struct {
	// Workers sets both the step 1 traversal fan-out and the size of the
	// step 2+3 worker pool; ≤ 0 selects GOMAXPROCS.
	Workers int
	// Batch is the number of candidate pairs per pipeline batch (default
	// 256). Larger batches amortize channel traffic; smaller batches
	// lower latency and peak memory.
	Batch int
	// Queue is the bounded depth of the candidate and result channels,
	// in batches (default 4×Workers). Together with Batch it caps the
	// in-flight memory at O((Queue+2·Workers)·Batch) candidate pairs —
	// the pipeline never materializes the full candidate set.
	Queue int
	// AccessR and AccessS, when non-nil, are the per-query page-access
	// contexts the step 1 traversal is accounted on (typically
	// Relation.NewSession of each side).
	AccessR, AccessS storage.Accessor
}

// DefaultStreamOptions returns the resolved default pipeline shape:
// GOMAXPROCS workers, 256-pair batches, a 4×Workers batch queue.
//
// Deprecated: the unified Join applies the same defaults; see
// StreamOptions.
func DefaultStreamOptions() StreamOptions {
	o := StreamOptions{Workers: runtime.GOMAXPROCS(0), Batch: 256}
	o.Queue = 4 * o.Workers
	return o
}

// withDefaults resolves the pipeline shape of one join call. The worker
// count is clamped to 4×GOMAXPROCS: beyond that, extra workers only cost
// memory and scheduling (the serving layer applies the same guard to its
// unauthenticated workers parameter; the library enforces it for every
// caller rather than trusting them).
func (o queryOptions) withDefaults() queryOptions {
	if o.workers <= 0 {
		o.workers = runtime.GOMAXPROCS(0)
	}
	if maxWorkers := 4 * runtime.GOMAXPROCS(0); o.workers > maxWorkers {
		o.workers = maxWorkers
	}
	if o.batch <= 0 {
		o.batch = 256
	}
	if o.queue <= 0 {
		o.queue = 4 * o.workers
	}
	return o
}

// streamCand is one candidate pair in flight between step 1 and step 2.
type streamCand struct{ a, b int32 }

// candBatchPool and pairBatchPool recycle the pipeline's batch buffers:
// the channels carry *[]T so a drained batch returns to the pool with its
// backing array AND its box, making the steady-state batch traffic
// allocation-free. Batches abandoned on cancellation simply fall to the
// garbage collector.
var (
	candBatchPool = sync.Pool{New: func() any { return new([]streamCand) }}
	pairBatchPool = sync.Pool{New: func() any { return new([]Pair) }}
)

// streamWorker accumulates one worker's share of the steps 2+3 statistics;
// the shares are merged deterministically after the pipeline drains. The
// fetched-object sets are bitsets over the dense object indexes — one bit
// per object instead of a hash-set entry per fetch.
type streamWorker struct {
	hits, falseHits    int64
	exactTested        int64
	exactHits          int64
	ops                ops.Counters
	fetchedR, fetchedS *bitset.Set
}

// joinStream runs the multi-step spatial join as a streaming, fully
// parallel pipeline and hands every response pair to o.emit or, with
// collect set, returns them all (unordered):
//
//	step 1  — the candidate generator runs as the producer; with the
//	          R*-tree generator the synchronized traversal itself is
//	          partitioned at the subtree level over Workers goroutines
//	          (rstar.JoinParallelAccess), evaluating the predicate's
//	          (possibly ε-expanded) rectangle test and candidate pretest.
//	steps 2+3 — candidate batches flow through a bounded channel into a
//	          pool of Workers that classify each pair with the
//	          predicate's geometric filter (once) and decide the
//	          survivors on the predicate's exact geometry test.
//
// o.emit is called from a single collector goroutine, one pair at a time,
// in no particular order; with neither an emitter nor collect the pairs
// are discarded and only statistics return. A streamed join's memory
// stays bounded by the channel depths regardless of the candidate-set
// size; a collecting one keeps its result batches as they arrive and
// copies them out once, into a slice of exactly the response's size.
//
// The emitted pair set and every statistic are independent of the worker
// count: the per-task and per-worker counters are pure sums and set
// unions, so the merge is independent of scheduling, and the step 1 page
// traces are replayed in sequential traversal order (see
// rstar.JoinParallelAccess).
//
// Cancellation: the traversal workers poll the context at every node
// pair, the producers at every batch boundary, and the filter/exact pool
// at every pair; a cancelled context drains the pipeline without further
// work and surfaces ctx.Err().
func joinStream(ctx context.Context, r, s *Relation, cfg Config, pred Predicate, o queryOptions, collect bool) ([]Pair, Stats, error) {
	o = o.withDefaults()
	var st Stats

	// Internal failure propagation: a worker that panics (a bug in an
	// exact kernel, or an injected fault) or hits a fired "exact"
	// injection cancels the pipeline with itself as the cause; the
	// panic is contained to the request instead of killing the process.
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)

	axR, axS := o.axR, o.axS
	if axR == nil {
		r.Tree.Buffer().ResetCounters()
		axR = r.Tree.Buffer()
	}
	if axS == nil {
		s.Tree.Buffer().ResetCounters()
		axS = s.Tree.Buffer()
	}
	missesR, missesS := axR.Misses(), axS.Misses()

	stop, release := ctxpoll.Stop(ctx)
	defer release()
	stopCh := ctx.Done()

	candCh := make(chan *[]streamCand, o.queue)
	resCh := make(chan *[]Pair, o.queue)

	// send enqueues one candidate batch, abandoning it when the context
	// is cancelled (the workers are draining by then).
	send := func(buf *[]streamCand) {
		select {
		case candCh <- buf:
		case <-stopCh: // nil for uncancellable contexts: select blocks on the send alone
		}
	}

	// Steps 2+3: the worker pool.
	workers := make([]streamWorker, o.workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(ws *streamWorker) {
			defer wg.Done()
			// A panicking worker fails this join, not the process: the
			// recovered panic becomes the pipeline's cancellation cause
			// and the remaining stages drain normally.
			defer func() {
				if rec := recover(); rec != nil {
					fail(resilience.Recovered("exact", rec))
				}
			}()
			ws.fetchedR = bitset.New(len(r.Objects))
			ws.fetchedS = bitset.New(len(s.Objects))
			for bp := range candCh {
				op := pairBatchPool.Get().(*[]Pair)
				out := (*op)[:0]
				for _, c := range *bp {
					if stop != nil && stop() {
						break
					}
					oa, ob := r.Objects[c.a], s.Objects[c.b]
					// Step 2: the predicate's geometric filter, evaluated
					// exactly once per candidate.
					if cfg.UseFilter {
						switch pred.classify(cfg.Filter, oa, ob) {
						case approx.Hit:
							ws.hits++
							out = append(out, Pair{A: c.a, B: c.b})
							continue
						case approx.FalseHit:
							ws.falseHits++
							continue
						}
					}
					// Step 3: the predicate's exact geometry test.
					ws.exactTested++
					ws.fetchedR.Set(int(c.a))
					ws.fetchedS.Set(int(c.b))
					if ferr := fault.Check("exact"); ferr != nil {
						fail(ferr)
						break
					}
					if pred.exactDecide(cfg, oa, ob, &ws.ops) {
						ws.exactHits++
						out = append(out, Pair{A: c.a, B: c.b})
					}
				}
				*bp = (*bp)[:0]
				candBatchPool.Put(bp)
				*op = out
				if len(out) > 0 {
					select {
					case resCh <- op:
					case <-stopCh:
					}
				} else {
					pairBatchPool.Put(op)
				}
			}
		}(&workers[w])
	}

	// The collector serializes emission of the response set.
	var (
		resultPairs int64
		held        []*[]Pair // collect: the result batches, until copied out
	)
	recycle := func(op *[]Pair) {
		*op = (*op)[:0]
		pairBatchPool.Put(op)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for op := range resCh {
			resultPairs += int64(len(*op))
			if collect {
				held = append(held, op)
				continue
			}
			if o.emit != nil {
				for _, p := range *op {
					o.emit(p)
				}
			}
			recycle(op)
		}
	}()

	// Step 1: the candidate producer, on the calling goroutine. Candidate
	// counting happens producer-side (per traversal worker for the
	// R*-tree generator — the counts are pure sums, so the merge is
	// scheduling-independent): the predicate pretest (MBR nesting for
	// inclusion joins) refines the rectangle-test survivors into
	// candidates.
	eps := pred.step1Eps()
	// newBatch takes a recycled candidate buffer from the pool.
	newBatch := func() *[]streamCand {
		bp := candBatchPool.Get().(*[]streamCand)
		*bp = (*bp)[:0]
		return bp
	}
	switch cfg.Step1 {
	case Step1RStar:
		// Per-traversal-worker batch buffers and candidate counters:
		// rstar.JoinParallelAccess serializes calls with the same worker
		// index, so no locks are needed.
		batches := make([]*[]streamCand, o.workers)
		for w := range batches {
			batches[w] = newBatch()
		}
		cands := make([]int64, o.workers)
		st.MBRJoin = rstar.JoinParallelAccess(ctx, r.Tree, s.Tree, axR, axS, eps, o.workers, func(w int, a, b rstar.Item) {
			if !pred.pretest(r.Objects[a.ID], s.Objects[b.ID]) {
				return
			}
			cands[w]++
			bp := batches[w]
			*bp = append(*bp, streamCand{a.ID, b.ID})
			if len(*bp) >= o.batch {
				send(bp)
				batches[w] = newBatch()
			}
		})
		for _, bp := range batches {
			if len(*bp) > 0 {
				send(bp)
			} else {
				candBatchPool.Put(bp)
			}
		}
		for _, c := range cands {
			st.CandidatePairs += c
		}
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
		bp := newBatch()
		zorder.Join(mbrsR, mbrsS, zcfg, func(i, j int) {
			if stop != nil && stop() {
				return
			}
			st.ZOrderCandidates++
			if mbrsR[i].Intersects(mbrsS[j]) && pred.pretest(r.Objects[i], s.Objects[j]) {
				st.CandidatePairs++
				*bp = append(*bp, streamCand{int32(i), int32(j)})
				if len(*bp) >= o.batch {
					send(bp)
					bp = newBatch()
				}
			}
		})
		if len(*bp) > 0 {
			send(bp)
		} else {
			candBatchPool.Put(bp)
		}
	case Step1NestedLoops:
		bp := newBatch()
	nested:
		for _, oa := range r.Objects {
			if stop != nil && stop() {
				break nested
			}
			for _, ob := range s.Objects {
				if oa.Approx.MBR.Expand(eps).Intersects(ob.Approx.MBR) && pred.pretest(oa, ob) {
					st.CandidatePairs++
					*bp = append(*bp, streamCand{oa.ID, ob.ID})
					if len(*bp) >= o.batch {
						send(bp)
						bp = newBatch()
					}
				}
			}
		}
		if len(*bp) > 0 {
			send(bp)
		} else {
			candBatchPool.Put(bp)
		}
	default:
		panic("multistep: unknown step 1 generator")
	}
	close(candCh)
	wg.Wait()
	close(resCh)
	<-done

	if ctx.Err() != nil {
		// Cause distinguishes an internal failure (worker panic, fired
		// injection) from the caller's own cancellation, for which it
		// reproduces ctx.Err().
		return nil, st, context.Cause(ctx)
	}

	// Deterministic merge: every counter is a sum and the fetch sets are
	// unions (word-wise ORs of the per-worker bitsets), so the totals do
	// not depend on how candidates were spread over the workers.
	unionR := bitset.New(len(r.Objects))
	unionS := bitset.New(len(s.Objects))
	for w := range workers {
		ws := &workers[w]
		st.FilterHits += ws.hits
		st.FilterFalseHits += ws.falseHits
		st.ExactTested += ws.exactTested
		st.ExactHits += ws.exactHits
		st.Ops.Add(ws.ops)
		unionR.Or(ws.fetchedR)
		unionS.Or(ws.fetchedS)
	}
	st.ObjectFetches = int64(unionR.Count() + unionS.Count())
	st.PageAccessesR = axR.Misses() - missesR
	st.PageAccessesS = axS.Misses() - missesS
	st.ResultPairs = resultPairs
	var out []Pair
	if len(held) > 0 {
		out = make([]Pair, 0, resultPairs)
		for _, op := range held {
			out = append(out, *op...)
			recycle(op)
		}
	}
	return out, st, nil
}
