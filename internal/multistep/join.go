package multistep

import (
	"context"
	"sync"
	"time"
	"unsafe"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/bitset"
	"spatialjoin/internal/freelist"
	"spatialjoin/internal/ops"
	"spatialjoin/internal/resilience"
	"spatialjoin/internal/resilience/fault"
	"spatialjoin/internal/rstar"
)

// This file is the join driver of the package — the only one. Join
// resolves its options, RunJoin executes them — validate and plan the
// request, run the one pipeline, then fill the explain — and Join orders
// and cuts the collected response with OrderPairs. Every delivery mode
// (collected, streamed, bufferless) and every worker count runs the same
// pipeline, so the statistics of one request do not depend on how its
// pairs were delivered.

// Join runs the multi-step spatial join of r and s under the configured
// predicate (default Intersects) and returns the response set sorted by
// (A, B) along with the per-step statistics. Every statistic is
// independent of the worker count and of streaming by construction, so
// one entry point serves measurement and production alike.
//
// Cancellation: when ctx is cancelled, the step 1 traversal workers stop
// at their next node pair, decide no further candidate, and Join returns
// ctx.Err().
//
// Accounting: without WithSessions the page accounting runs on the shared
// tree buffers (counters reset first) — the paper's sequential mode, one
// query at a time. With per-query sessions on both sides the join is
// fully concurrent-safe.
func Join(ctx context.Context, r, s *Relation, opts ...Option) ([]Pair, Stats, error) {
	o := ResolveOptions(opts)
	pairs, st, err := RunJoin(ctx, r, s, o, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	if pairs != nil {
		// Ordered in place: the response keeps the slice RunJoin sized.
		pairs = OrderPairs([][]Pair{pairs}, len(r.Objects), len(s.Objects), o.Limit, pairs)
	}
	return pairs, st, nil
}

// RunJoin is Join on an already resolved option set, except that it
// appends the collected response to dst in pipeline order, unsorted and
// uncut: o.Limit is not applied. A nil dst gets a new slice of exactly
// the response's size; a reused buffer grows only past its capacity. It
// is the entry of coordinators that resolve a request once and run it on
// several relation pairs (internal/shard hands each tile pair a copy
// with its own sessions in AxR/AxS, its own Explain and its own run
// buffer, and orders and cuts the responses itself).
func RunJoin(ctx context.Context, r, s *Relation, o Resolved, dst []Pair) ([]Pair, Stats, error) {
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
	pairs, st, err := joinPipeline(ctx, r, s, &o, cfg, dst)
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

// workerShare is one step 1 worker's share of the steps 2+3 work: its
// counters, its fetched-object sets and, in a collected join, the pairs
// it decided to be responses. The shares are merged deterministically
// after the traversal. The fetched-object sets are bitsets over the dense
// object indexes — one bit per object instead of a hash-set entry per
// fetch.
type workerShare struct {
	cands, hits, falseHits int64
	exactTested, exactHits int64
	ops                    ops.Counters
	fetchedR, fetchedS     *bitset.Set
	out                    *[]Pair // from hitBuffers; nil unless the join collects
}

// hitBuffers keeps the workers' response buffers between joins. A buffer
// goes back with room for the whole response of the join that used it,
// so a warmed join grows none of them whichever worker gets which buffer
// and however the traversal's tasks fall to the workers.
var hitBuffers freelist.List[[]Pair]

// joinPipeline executes one resolved join under the effective
// configuration cfg, the paper's three steps on one pool of workers:
// step 1, the R*-tree join, partitions its synchronized traversal at the
// subtree level over the workers (rstar.JoinParallelAccess), evaluating
// the (possibly ε-expanded) rectangle test, and each worker decides every
// survivor it finds on the spot — the predicate's pretest, then the
// geometric filter (step 2, once), then the exact geometry test (step 3)
// for the pairs the filter leaves open. No candidate set is materialized
// and no candidate leaves the worker that found it.
//
// A worker counts into its own share and keeps its responses in its own
// buffer; a streamed join instead hands each response to the WithStream
// emitter, serialized by a mutex, in no particular order. After the
// traversal the counters are summed, the fetch sets ORed and a collected
// response is copied out once.
//
// Cancellation: the traversal polls the context at every node pair and
// the decision at every candidate, so a cancelled context ends the join
// without further work and surfaces ctx.Err(). A decision that panics (a
// bug in an exact kernel, or an injected fault) or hits a fired "exact"
// injection cancels the join with itself as the cause — the failure is
// contained to this join, which fails closed, instead of killing the
// process.
func joinPipeline(ctx context.Context, r, s *Relation, o *Resolved, cfg Config, dst []Pair) ([]Pair, Stats, error) {
	workers := effectiveWorkers(o.Workers)
	pred, stream := o.Pred, o.Stream
	collects := stream == nil && !o.Bufferless

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
	done := ctx.Done()

	shares := make([]workerShare, workers)
	for w := range shares {
		ws := &shares[w]
		ws.fetchedR, ws.fetchedS = bitset.New(len(r.Objects)), bitset.New(len(s.Objects))
		if collects {
			ws.out = hitBuffers.Get()
		}
	}
	// responses is the join's response count, once known.
	var responses int
	defer func() {
		for w := range shares {
			if out := shares[w].out; out != nil {
				if *out = (*out)[:0]; cap(*out) < responses {
					*out = make([]Pair, 0, responses)
				}
				hitBuffers.Put(out, cap(*out)*int(unsafe.Sizeof(Pair{})))
			}
		}
	}()

	// decide runs steps 2 and 3 on one rectangle-test survivor and reports
	// whether the pair is a response. It is the recovery boundary of the
	// exact kernels: a panic fails the join instead of the worker, and the
	// decision returns false.
	decide := func(ws *workerShare, a, b int32) bool {
		defer func() {
			if rec := recover(); rec != nil {
				fail(resilience.Recovered("exact", rec))
			}
		}()
		oa, ob := r.Objects[a], s.Objects[b]
		if !pred.pretest(oa, ob) {
			return false
		}
		ws.cands++
		// Step 2: the geometric filter, evaluated exactly once per
		// candidate.
		if cfg.UseFilter {
			switch pred.classify(cfg.Filter, oa, ob) {
			case approx.Hit:
				ws.hits++
				return true
			case approx.FalseHit:
				ws.falseHits++
				return false
			}
		}
		// Step 3: the exact geometry test.
		ws.exactTested++
		ws.fetchedR.Set(int(a))
		ws.fetchedS.Set(int(b))
		if err := fault.Check("exact"); err != nil {
			fail(err)
			return false
		}
		if pred.exactDecide(cfg, oa, ob, &ws.ops) {
			ws.exactHits++
			return true
		}
		return false
	}

	// Step 1 on the calling goroutine and its workers. Calls with the same
	// w are serial, so a worker's share needs no lock; only the stream
	// emitter is shared.
	var st Stats
	var emitMu sync.Mutex
	st.MBRJoin = rstar.JoinParallelAccess(ctx, r.Tree, s.Tree, axR, axS, pred.step1Eps(), workers, func(w int, a, b rstar.Item) {
		select {
		case <-done:
			return // cancelled or failed: decide nothing more
		default:
		}
		ws := &shares[w]
		if !decide(ws, a.ID, b.ID) {
			return
		}
		switch p := (Pair{A: a.ID, B: b.ID}); {
		case collects:
			*ws.out = append(*ws.out, p)
		case stream != nil:
			emitMu.Lock()
			stream(p)
			emitMu.Unlock()
		}
	})

	if ctx.Err() != nil {
		// Cause distinguishes an internal failure (a panic, a fired
		// injection) from the caller's own cancellation, for which it
		// reproduces ctx.Err().
		return nil, Stats{}, context.Cause(ctx)
	}

	// Deterministic merge: every counter is a sum, the fetch sets are
	// unions (word-wise ORs of the per-worker bitsets, into worker 0's)
	// and the response set is appended to dst, which a nil dst allocates
	// at exactly the response's size.
	st.PageAccessesR, st.PageAccessesS = axR.Misses()-missesR, axS.Misses()-missesS
	unionR, unionS := shares[0].fetchedR, shares[0].fetchedS
	for w := range shares {
		ws := &shares[w]
		st.CandidatePairs += ws.cands
		st.FilterHits += ws.hits
		st.FilterFalseHits += ws.falseHits
		st.ExactTested += ws.exactTested
		st.ExactHits += ws.exactHits
		st.Ops.Add(ws.ops)
		unionR.Or(ws.fetchedR)
		unionS.Or(ws.fetchedS)
	}
	st.ObjectFetches = int64(unionR.Count() + unionS.Count())
	st.ResultPairs = st.FilterHits + st.ExactHits
	if !collects || st.ResultPairs == 0 {
		return dst, st, nil
	}
	responses = int(st.ResultPairs)
	if dst == nil {
		dst = make([]Pair, 0, responses)
	}
	for w := range shares {
		dst = append(dst, *shares[w].out...)
	}
	return dst, st, nil
}
