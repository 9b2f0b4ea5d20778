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

// TestJoinAllocsBounded guards the join's scratch: a warmed, collected
// join allocates its response slice and a constant — its context, its
// per-worker shares and fetch sets, its closures and step 1's own
// constant — while the response buffers come back from their free list. On
// one worker and on two, the count is the same at two relation sizes
// whose candidate and response counts differ several fold, so nothing in
// it grows with the data.
func TestJoinAllocsBounded(t *testing.T) {
	cfg := DefaultConfig()
	type workload struct{ r, s *Relation }
	var loads []workload
	for _, cells := range []int{300, 1200} {
		rp := data.GenerateMap(data.MapConfig{Cells: cells, TargetVerts: 20, Seed: 223})
		r, s := NewRelation("r", rp, cfg), NewRelation("s", data.StrategyA(rp, 0.45), cfg)
		if r.Tree.Height() < 2 || s.Tree.Height() < 2 {
			t.Fatalf("%d cells: trees of height %d and %d; the partitioned traversal would not run",
				cells, r.Tree.Height(), s.Tree.Height())
		}
		loads = append(loads, workload{r, s})
	}
	for _, workers := range []int{1, 2} {
		var counts []float64
		for _, l := range loads {
			var st Stats
			run := func() {
				var err error
				if _, st, err = Join(context.Background(), l.r, l.s, WithWorkers(workers)); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the free lists, the buffers and the lazily built exact representations
			allocs := testing.AllocsPerRun(5, run)
			t.Logf("%d workers, %d×%d objects: %d candidates, %d responses, %.0f objects per join",
				workers, len(l.r.Objects), len(l.s.Objects), st.CandidatePairs, st.ResultPairs, allocs)
			counts = append(counts, allocs)
		}
		if counts[0] != counts[1] {
			t.Errorf("%d workers: a warmed join allocates %.0f objects on the small relations and %.0f on the large ones, want the same",
				workers, counts[0], counts[1])
		}
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
