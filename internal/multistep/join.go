package multistep

import (
	"context"
	"slices"
	"sync"
	"time"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/bitset"
	"spatialjoin/internal/ctxpoll"
	"spatialjoin/internal/ops"
	"spatialjoin/internal/resilience"
	"spatialjoin/internal/resilience/fault"
	"spatialjoin/internal/rstar"
)

// This file is the join driver of the package — the only one. Join
// resolves its options, RunJoin executes them — validate and plan the
// request, run the one pipeline, then fill the explain — and Join sorts
// and cuts the collected response. Every delivery mode (collected,
// streamed, bufferless) and every worker count runs the same pipeline,
// so the statistics of one request do not depend on how its pairs were
// delivered.

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
	pairs, st, err := RunJoin(ctx, r, s, o)
	if err != nil {
		return nil, Stats{}, err
	}
	slices.SortFunc(pairs, ComparePairs)
	if o.Limit >= 0 && len(pairs) > o.Limit {
		pairs = pairs[:o.Limit]
	}
	return pairs, st, nil
}

// RunJoin is Join on an already resolved option set, except that it
// returns the collected response in pipeline order, unsorted and uncut:
// o.Limit is not applied. It is the entry of coordinators that resolve a
// request once and run it on several relation pairs (internal/shard
// hands each tile pair a copy with its own sessions in AxR/AxS and its
// own Explain, and orders, merges and cuts the responses itself).
func RunJoin(ctx context.Context, r, s *Relation, o Resolved) ([]Pair, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := o.Pred.Validate(); err != nil {
		return nil, Stats{}, err
	}
	cfg, err := joinConfig(r, s, &o)
	if err != nil {
		return nil, Stats{}, err
	}
	// Adaptive planning: WithPlan resolves the dimensions the caller left
	// open (engine, filter, workers) through internal/plan; pinned
	// dimensions pass through unchanged, so explicit options win.
	var pl Plan
	switch {
	case o.Plan:
		cfg, o.Workers, pl = planJoin(r, s, cfg, &o)
	case o.Explain != nil:
		pl = echoPlan(cfg, &o)
	}

	var started time.Time
	if o.Explain != nil {
		started = time.Now()
	}
	pairs, st, err := joinPipeline(ctx, r, s, &o, cfg)
	elapsed := time.Since(started)
	if o.Explain != nil {
		// On error the explain records the plan with zero actuals,
		// marked not executed.
		fillExplain(o.Explain, pl, st, elapsed, err == nil)
	}
	if err != nil {
		return nil, Stats{}, err
	}
	return pairs, st, nil
}

// candPair is one candidate pair in flight between step 1 and step 2: a
// rectangle-test survivor that passed the predicate's pretest.
type candPair struct{ a, b int32 }

// candBatchPool and pairBatchPool recycle the pipeline's batch buffers:
// the channels carry *[]T so a drained batch returns to the pool with its
// backing array AND its box, making the steady-state batch traffic
// allocation-free. Batches abandoned on cancellation simply fall to the
// garbage collector.
var (
	candBatchPool = sync.Pool{New: func() any { return new([]candPair) }}
	pairBatchPool = sync.Pool{New: func() any { return new([]Pair) }}
)

// workerShare accumulates one worker's share of the steps 2+3
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

// joinPipeline executes one resolved join under the effective
// configuration cfg as a streaming, fully parallel pipeline:
//
//	step 1  — the R*-tree join runs as the producer: its synchronized
//	          traversal is partitioned at the subtree level over the workers
//	          (rstar.JoinParallelAccess), evaluating the (possibly
//	          ε-expanded) rectangle test; each survivor that passes the
//	          predicate's pretest becomes a candidate.
//	steps 2+3 — candidate batches flow through a bounded channel into a
//	          pool of workers that classify each pair with the geometric
//	          filter (once) and decide the survivors on the exact
//	          geometry test.
//
// A single collector goroutine counts the decided pairs and either hands
// them to the WithStream emitter, one pair at a time and in no particular
// order, or keeps the result batches until the pipeline has drained and
// the response can be copied out once, into a slice of exactly its size.
// A streamed or bufferless join keeps its memory bounded by the channel
// depths regardless of the candidate-set size.
//
// Cancellation: the traversal workers poll the context at every node
// pair, the producers at every batch boundary, and the filter/exact pool
// at every pair; a cancelled context drains the pipeline without further
// work and surfaces ctx.Err(). A worker that panics (a bug in an exact
// kernel, or an injected fault) or hits a fired "exact" injection cancels
// the pipeline with itself as the cause — the failure is contained to
// this join, which fails closed, instead of killing the process.
func joinPipeline(ctx context.Context, r, s *Relation, o *Resolved, cfg Config) ([]Pair, Stats, error) {
	workers := effectiveWorkers(o.Workers)
	pred := o.Pred
	collects := o.Stream == nil && !o.Bufferless

	axR, axS := o.AxR, o.AxS
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

	candCh := make(chan *[]candPair, queuePerWorker*workers)
	resCh := make(chan *[]Pair, queuePerWorker*workers)

	// Steps 2+3: the worker pool, one counter block per worker.
	shares := make([]workerShare, workers)
	var wg sync.WaitGroup
	for w := range shares {
		wg.Add(1)
		go func(ws *workerShare) {
			defer wg.Done()
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
					// Step 2: the geometric filter, evaluated exactly once
					// per candidate.
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
					// Step 3: the exact geometry test.
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
	emit := o.Stream
	var (
		resultPairs int64
		held        []*[]Pair
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for op := range resCh {
			resultPairs += int64(len(*op))
			if emit != nil {
				for _, p := range *op {
					emit(p)
				}
			}
			if collects {
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
	// counters need no locks) and queues it if the pretest admits it.
	// Candidate counting happens here, producer-side: the counts are pure
	// sums, so the merge is scheduling-independent.
	var st Stats
	eps := pred.step1Eps()
	batches := make([]*[]candPair, workers)
	cands := make([]int64, workers)
	send := func(bp *[]candPair) {
		select {
		case candCh <- bp:
		case <-stopCh: // abandoned: the workers are draining by then
		}
	}
	offer := func(w int, a, b int32) {
		if !pred.pretest(r.Objects[a], s.Objects[b]) {
			return
		}
		cands[w]++
		bp := batches[w]
		if bp == nil {
			bp = candBatchPool.Get().(*[]candPair)
			batches[w] = bp
		}
		*bp = append(*bp, candPair{a, b})
		if len(*bp) >= batchPairs {
			send(bp)
			batches[w] = nil
		}
	}
	st.MBRJoin = rstar.JoinParallelAccess(ctx, r.Tree, s.Tree, axR, axS, eps, workers, func(w int, a, b rstar.Item) {
		offer(w, a.ID, b.ID)
	})
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
		return nil, Stats{}, context.Cause(ctx)
	}

	// Deterministic merge: the response set is allocated at exactly its
	// size (callers cache it), every counter is a sum and the fetch sets
	// are unions (word-wise ORs of the per-worker bitsets).
	st.ResultPairs = resultPairs
	var pairs []Pair
	if collects && resultPairs > 0 {
		pairs = make([]Pair, 0, resultPairs)
	}
	for _, op := range held {
		pairs = append(pairs, *op...)
		*op = (*op)[:0]
		pairBatchPool.Put(op)
	}
	st.PageAccessesR, st.PageAccessesS = axR.Misses()-missesR, axS.Misses()-missesS
	unionR := bitset.New(len(r.Objects))
	unionS := bitset.New(len(s.Objects))
	for w := range shares {
		st.CandidatePairs += cands[w]
		ws := &shares[w]
		st.FilterHits += ws.hits
		st.FilterFalseHits += ws.falseHits
		st.ExactTested += ws.exactTested
		st.ExactHits += ws.exactHits
		st.Ops.Add(ws.ops)
		unionR.Or(ws.fetchedR)
		unionS.Or(ws.fetchedS)
	}
	st.ObjectFetches = int64(unionR.Count() + unionS.Count())
	return pairs, st, nil
}
