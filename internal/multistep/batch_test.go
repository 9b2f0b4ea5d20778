package multistep

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"spatialjoin/internal/data"
	"spatialjoin/internal/storage"
)

// batchTestRelations builds a small relation pair for the batch
// equivalence tests.
func batchTestRelations(t *testing.T) (*Relation, *Relation, Config) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BufferBytes = 8 << 10
	rp := data.GenerateMap(data.MapConfig{Cells: 80, TargetVerts: 48, HoleFraction: 0.1, Seed: 211})
	sp := data.StrategyA(rp, 0.45)
	return NewRelation("r", rp, cfg), NewRelation("s", sp, cfg), cfg
}

// joinBatchOpts is JoinBatch over option lists, each resolved once as a
// coordinator would.
func joinBatchOpts(ctx context.Context, r, s *Relation, axR, axS storage.Accessor, items [][]Option) ([]BatchResult, error) {
	var ress []Resolved
	for _, opts := range items {
		ress = append(ress, ResolveOptions(opts))
	}
	return JoinBatch(ctx, r, s, axR, axS, ress)
}

// soloRun executes one request exactly as JoinBatch members are
// executed: on fresh sessions seeded from the shared buffer snapshot,
// so page accounting is identical across runs.
func soloRun(t *testing.T, r, s *Relation, opts []Option) ([]Pair, Stats) {
	t.Helper()
	solo := append([]Option{WithSessions(r.NewSession(), s.NewSession())}, opts...)
	pairs, st, err := Join(context.Background(), r, s, solo...)
	if err != nil {
		t.Fatalf("solo Join: %v", err)
	}
	return pairs, st
}

// TestJoinBatchMatchesSolo is the tentpole equivalence proof at the
// multistep layer: every request in a mixed batch — different
// predicates (same step-1 ε), configurations, worker counts, limits —
// must report exactly the pairs and candidate-level Stats of its solo
// run.
func TestJoinBatchMatchesSolo(t *testing.T) {
	r, s, cfg := batchTestRelations(t)
	noFilter := cfg
	noFilter.UseFilter = false
	quad := cfg
	quad.Engine = EngineQuadratic

	items := [][]Option{
		{WithPredicate(Intersects())},
		{WithPredicate(Contains())},
		{WithPredicate(WithinDistance(0))},
		{WithPredicate(Intersects()), WithConfig(noFilter)},
		{WithPredicate(Contains()), WithConfig(quad), WithWorkers(3)},
		{WithPredicate(Intersects()), WithLimit(7)},
		{WithPredicate(Intersects()), WithBufferless()},
	}

	outs, err := joinBatchOpts(context.Background(), r, s, r.NewSession(), s.NewSession(), items)
	if err != nil {
		t.Fatalf("JoinBatch: %v", err)
	}
	if len(outs) != len(items) {
		t.Fatalf("got %d results for %d items", len(outs), len(items))
	}
	for i, opts := range items {
		pairs, st := soloRun(t, r, s, opts)
		if !reflect.DeepEqual(outs[i].Stats, st) {
			t.Errorf("item %d: batched Stats = %+v\n                solo Stats = %+v", i, outs[i].Stats, st)
		}
		if !reflect.DeepEqual(outs[i].Pairs, pairs) {
			t.Errorf("item %d: batched pairs (%d) differ from solo pairs (%d)", i, len(outs[i].Pairs), len(pairs))
		}
	}
	if outs[6].Pairs != nil {
		t.Error("bufferless item returned pairs")
	}
}

// TestJoinBatchSingleItem: the one-request batch — the serving layer's
// common path — is the solo run, byte for byte. This makes routing
// every request through the batch entry point safe.
func TestJoinBatchSingleItem(t *testing.T) {
	r, s, _ := batchTestRelations(t)
	opts := []Option{WithPredicate(Intersects()), WithLimit(25)}
	outs, err := joinBatchOpts(context.Background(), r, s, r.NewSession(), s.NewSession(), [][]Option{opts})
	if err != nil {
		t.Fatalf("JoinBatch: %v", err)
	}
	pairs, st := soloRun(t, r, s, opts)
	if !reflect.DeepEqual(outs[0].Stats, st) || !reflect.DeepEqual(outs[0].Pairs, pairs) {
		t.Fatalf("single-item batch differs from solo:\nbatch %+v\nsolo  %+v", outs[0].Stats, st)
	}
}

// TestJoinBatchWithinEps: a ε-join batch group (shared ε = 0.004)
// across engines and filter settings.
func TestJoinBatchWithinEps(t *testing.T) {
	r, s, cfg := batchTestRelations(t)
	const eps = 0.004
	noFilter := cfg
	noFilter.UseFilter = false
	items := [][]Option{
		{WithPredicate(WithinDistance(eps))},
		{WithPredicate(WithinDistance(eps)), WithConfig(noFilter)},
		{WithPredicate(WithinDistance(eps)), WithWorkers(2), WithLimit(11)},
	}
	outs, err := joinBatchOpts(context.Background(), r, s, r.NewSession(), s.NewSession(), items)
	if err != nil {
		t.Fatalf("JoinBatch: %v", err)
	}
	for i, opts := range items {
		pairs, st := soloRun(t, r, s, opts)
		if !reflect.DeepEqual(outs[i].Stats, st) {
			t.Errorf("item %d: batched Stats = %+v\n                solo Stats = %+v", i, outs[i].Stats, st)
		}
		if !reflect.DeepEqual(outs[i].Pairs, pairs) {
			t.Errorf("item %d: pairs differ", i)
		}
	}
}

// TestJoinBatchExplain: per-request Explain captures in a batch carry
// each request's own plan and actuals.
func TestJoinBatchExplain(t *testing.T) {
	r, s, _ := batchTestRelations(t)
	var ex0, ex1 Explain
	items := [][]Option{
		{WithPredicate(Intersects()), WithPlan(), WithExplain(&ex0)},
		{WithPredicate(Contains()), WithPlan(), WithExplain(&ex1)},
	}
	outs, err := joinBatchOpts(context.Background(), r, s, r.NewSession(), s.NewSession(), items)
	if err != nil {
		t.Fatalf("JoinBatch: %v", err)
	}
	if !ex0.Executed || !ex1.Executed {
		t.Fatal("explains not marked executed")
	}
	if ex0.ActualResultPairs != outs[0].Stats.ResultPairs || ex1.ActualResultPairs != outs[1].Stats.ResultPairs {
		t.Fatalf("explain actuals do not match results: %d/%d vs %d/%d",
			ex0.ActualResultPairs, ex1.ActualResultPairs, outs[0].Stats.ResultPairs, outs[1].Stats.ResultPairs)
	}
	if !ex0.Plan.Planned || !ex1.Plan.Planned {
		t.Fatal("planned batch items lost their plan record")
	}
}

// TestJoinBatchRejections: mixed ε, streaming members, step 1 generators
// other than the R*-tree traversal and oversized batches are rejected
// before any work happens — and what only a single request can mean
// (streaming, the Z-order and nested-loops generators) is admitted for a
// batch of one, which is what Join is.
func TestJoinBatchRejections(t *testing.T) {
	r, s, cfg := batchTestRelations(t)
	ctx := context.Background()
	intersects := []Option{WithPredicate(Intersects())}

	_, err := joinBatchOpts(ctx, r, s, nil, nil, [][]Option{
		intersects,
		{WithPredicate(WithinDistance(0.01))},
	})
	if !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("mixed-ε batch err = %v, want ErrBatchMismatch", err)
	}

	streaming := []Option{WithStream(func(Pair) {})}
	_, err = joinBatchOpts(ctx, r, s, nil, nil, [][]Option{intersects, streaming})
	if !errors.Is(err, ErrBatchStream) {
		t.Fatalf("streaming batch err = %v, want ErrBatchStream", err)
	}
	if _, err = joinBatchOpts(ctx, r, s, nil, nil, [][]Option{streaming}); err != nil {
		t.Fatalf("one streaming item: %v, want it admitted", err)
	}

	want, wantSt := soloRun(t, r, s, intersects)
	for _, step1 := range []Step1{Step1ZOrder, Step1NestedLoops} {
		alt := cfg
		alt.Step1 = step1
		item := []Option{WithConfig(alt)}
		_, err = joinBatchOpts(ctx, r, s, nil, nil, [][]Option{intersects, item})
		if !errors.Is(err, ErrBatchMismatch) {
			t.Fatalf("%v in a batch of two: err = %v, want ErrBatchMismatch", step1, err)
		}
		outs, err := joinBatchOpts(ctx, r, s, r.NewSession(), s.NewSession(), [][]Option{item})
		if err != nil {
			t.Fatalf("%v in a batch of one: %v, want it admitted", step1, err)
		}
		// Another generator finds the same candidates, so everything but
		// the step 1 work counters matches the R*-tree run.
		if !reflect.DeepEqual(outs[0].Pairs, want) || outs[0].Stats.CandidatePairs != wantSt.CandidatePairs ||
			outs[0].Stats.ExactTested != wantSt.ExactTested {
			t.Errorf("%v in a batch of one: %d pairs, stats %+v; want %d pairs, stats %+v",
				step1, len(outs[0].Pairs), outs[0].Stats, len(want), wantSt)
		}
	}

	big := make([][]Option, MaxBatchItems+1)
	for i := range big {
		big[i] = intersects
	}
	_, err = joinBatchOpts(ctx, r, s, nil, nil, big)
	if !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized batch err = %v, want ErrBatchTooLarge", err)
	}

	if outs, err := joinBatchOpts(ctx, r, s, nil, nil, nil); err != nil || outs != nil {
		t.Fatalf("empty batch = %v, %v; want nil, nil", outs, err)
	}
}

// TestJoinAllocsBounded guards the pooled batch buffers: a warmed
// one-item join allocates its per-worker state, its channels, its
// response slice and the R*-tree traversal's scratch — nothing that grows
// with the number of candidate or result batches. With 16-pair batches
// the workload moves several hundred of each, so an unpooled batch path
// shows as more than one allocation per candidate batch.
func TestJoinAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; the batch buffers are pooled")
	}
	cfg := DefaultConfig()
	rp := data.GenerateMap(data.MapConfig{Cells: 1200, TargetVerts: 20, Seed: 223})
	r, s := NewRelation("r", rp, cfg), NewRelation("s", data.StrategyA(rp, 0.45), cfg)
	defer func(b int) { batchPairs = b }(batchPairs)
	batchPairs = 16
	var batches int64
	run := func() {
		_, st, err := Join(context.Background(), r, s, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		batches = st.CandidatePairs / int64(batchPairs)
	}
	run() // warm the pools, the buffers and the lazily built exact representations
	allocs := testing.AllocsPerRun(5, run)
	if batches < 400 {
		t.Fatalf("only %d candidate batches; the guard is vacuous", batches)
	}
	if allocs > float64(batches)/2 {
		t.Errorf("a warmed join of %d candidate batches allocates %.0f objects, want at most one per two batches", batches, allocs)
	}
}

// TestJoinBatchCancellation: a cancelled context surfaces from the
// shared pipeline.
func TestJoinBatchCancellation(t *testing.T) {
	r, s, _ := batchTestRelations(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := joinBatchOpts(ctx, r, s, r.NewSession(), s.NewSession(), [][]Option{
		{WithPredicate(Intersects())},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
