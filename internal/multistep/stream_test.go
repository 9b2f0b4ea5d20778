package multistep

import (
	"context"
	"testing"

	"spatialjoin/internal/data"
)

// clearBuffers puts both relations' page buffers into the same (cold)
// state, so that the page-access statistics of consecutive joins are
// comparable byte for byte.
func clearBuffers(r, s *Relation) {
	r.Tree.Buffer().Clear()
	s.Tree.Buffer().Clear()
}

// TestJoinStreamEquivalence is the streaming pipeline's correctness
// theorem: for every exact engine and every worker count, a streamed Join
// (and a collected multi-worker one) produces exactly the one-worker
// Join's response set and statistics — candidate counts, filter
// decisions, exact tests, object fetches, operation counters and page
// accesses alike.
func TestJoinStreamEquivalence(t *testing.T) {
	rp, sp := smallSeries(t)
	for _, engine := range []Engine{EngineQuadratic, EnginePlaneSweep, EngineTRStar} {
		cfg := DefaultConfig()
		cfg.Engine = engine
		r := NewRelation("R", rp, cfg)
		s := NewRelation("S", sp, cfg)
		name := engine.String()

		clearBuffers(r, s)
		want, wantSt := testJoin(t, r, s, cfg)
		if len(want) == 0 {
			t.Fatalf("%s: join produced nothing; test is vacuous", name)
		}

		for _, workers := range []int{1, 2, 4, 0} {
			clearBuffers(r, s)
			var got []Pair
			st := testJoinStream(t, r, s, cfg,
				func(p Pair) { got = append(got, p) }, WithWorkers(workers))
			assertSameResponse(t, name, got, want)
			if st != wantSt {
				t.Errorf("%s workers=%d: stats diverge:\n got %+v\nwant %+v",
					name, workers, st, wantSt)
			}
		}

		clearBuffers(r, s)
		got, st := testJoinWorkers(t, r, s, cfg, 4)
		assertSameResponse(t, name+"/workers=4 collected", got, want)
		if st != wantSt {
			t.Errorf("%s: collected 4-worker stats diverge:\n got %+v\nwant %+v",
				name, st, wantSt)
		}
	}
}

// TestJoinStreamBackpressure runs the pipeline with the smallest possible
// batches and queue so every channel operation and flush path is
// exercised under back-pressure.
func TestJoinStreamBackpressure(t *testing.T) {
	rp, sp := smallSeries(t)
	cfg := DefaultConfig()
	r := NewRelation("R", rp, cfg)
	s := NewRelation("S", sp, cfg)

	clearBuffers(r, s)
	want, wantSt := testJoin(t, r, s, cfg)

	clearBuffers(r, s)
	var got []Pair
	defer func(b, q int) { batchPairs, queuePerWorker = b, q }(batchPairs, queuePerWorker)
	batchPairs, queuePerWorker = 1, 0 // one pair per batch, unbuffered channels
	st := testJoinStream(t, r, s, cfg,
		func(p Pair) { got = append(got, p) }, WithWorkers(3))
	assertSameResponse(t, "batch=1", got, want)
	if st != wantSt {
		t.Errorf("batch=1: stats diverge:\n got %+v\nwant %+v", st, wantSt)
	}
}

// TestJoinAllocsBounded guards the pooled batch buffers: a warmed join
// allocates its per-worker state, its channels, its response slice and
// the R*-tree traversal's scratch — nothing that grows with the number of
// candidate or result batches. With 16-pair batches the workload moves
// several hundred of each, so an unpooled batch path shows as more than
// one allocation per candidate batch.
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

// TestJoinStreamNilEmit checks that a nil emit still drives the full
// pipeline and reports complete statistics.
func TestJoinStreamNilEmit(t *testing.T) {
	rp, sp := smallSeries(t)
	cfg := DefaultConfig()
	r := NewRelation("R", rp, cfg)
	s := NewRelation("S", sp, cfg)

	clearBuffers(r, s)
	want, wantSt := testJoin(t, r, s, cfg)

	clearBuffers(r, s)
	st := testJoinStream(t, r, s, cfg, nil)
	if st != wantSt {
		t.Errorf("nil emit: stats diverge:\n got %+v\nwant %+v", st, wantSt)
	}
	if st.ResultPairs != int64(len(want)) {
		t.Errorf("nil emit: ResultPairs = %d, want %d", st.ResultPairs, len(want))
	}
}

// TestJoinStreamRepeatable runs the same streaming join twice from the
// same buffer state and demands identical statistics — the deterministic
// merge must hide the scheduling.
func TestJoinStreamRepeatable(t *testing.T) {
	rp, sp := smallSeries(t)
	cfg := DefaultConfig()
	r := NewRelation("R", rp, cfg)
	s := NewRelation("S", sp, cfg)

	clearBuffers(r, s)
	first := testJoinStream(t, r, s, cfg, nil, WithWorkers(4))
	clearBuffers(r, s)
	second := testJoinStream(t, r, s, cfg, nil, WithWorkers(4))
	if first != second {
		t.Errorf("streaming join not repeatable:\n first %+v\nsecond %+v", first, second)
	}
}

// TestPipelineShapeDefaults pins the documented pipeline shape: 256-pair
// batches and a channel depth of four batches per worker.
func TestPipelineShapeDefaults(t *testing.T) {
	if batchPairs != 256 || queuePerWorker != 4 {
		t.Errorf("unexpected pipeline shape: batch %d, queue %d per worker", batchPairs, queuePerWorker)
	}
}
