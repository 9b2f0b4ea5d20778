package shard

import (
	"context"
	"testing"

	"spatialjoin/internal/data"
	"spatialjoin/internal/multistep"
)

// TestJoinAllocsBounded guards the scatter-gather join's scratch: a
// warmed, collected 4×4-tile join allocates its response, once, and a
// constant — its sub-joins' sessions, closures and shares — while the
// run buffers, the merge's counting scratch and everything below come
// back from free lists. The count is the same at two relation sizes whose
// responses differ several fold, so nothing in it grows with the data,
// and it exceeds a bufferless join's, which collects nothing, by exactly
// the one response: a copy per sub-join or per merge pass fails it.
func TestJoinAllocsBounded(t *testing.T) {
	cfg := multistep.DefaultConfig()
	var counts []float64
	subJoins := -1
	for _, cells := range []int{300, 1200} {
		rp := data.GenerateMap(data.MapConfig{Cells: cells, TargetVerts: 20, Seed: 223})
		r, s := Build("r", rp, 4, cfg), Build("s", data.StrategyA(rp, 0.45), 4, cfg)
		var (
			pairs []multistep.Pair
			st    JoinStats
		)
		join := func(opts ...multistep.Option) func() {
			return func() {
				var err error
				if pairs, st, err = Join(context.Background(), r, s, opts...); err != nil {
					t.Fatal(err)
				}
			}
		}
		join(multistep.WithBufferless())() // warm the lazily built exact representations
		bufferless := testing.AllocsPerRun(5, join(multistep.WithBufferless()))
		run := join()
		run() // warm the free lists and the buffers
		allocs := testing.AllocsPerRun(5, run)
		t.Logf("%d×%d objects, %d sub-joins: %d responses, %.0f objects per join, %.0f bufferless",
			r.Objects(), s.Objects(), st.SubJoins, len(pairs), allocs, bufferless)
		if allocs != bufferless+1 {
			t.Errorf("%d cells: a collected join allocates %.0f objects, a bufferless one %.0f; want one more, the response",
				cells, allocs, bufferless)
		}
		if len(pairs) == 0 || cap(pairs) != len(pairs) {
			t.Fatalf("%d cells: a response of %d pairs in a slice of capacity %d, want a non-empty exact-size one", cells, len(pairs), cap(pairs))
		}
		if subJoins >= 0 && st.SubJoins != subJoins {
			t.Fatalf("%d cells: %d sub-joins, %d at the smaller size; the constants would differ", cells, st.SubJoins, subJoins)
		}
		subJoins = st.SubJoins
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("a warmed join allocates %.0f objects on the small relations and %.0f on the large ones, want the same",
			counts[0], counts[1])
	}
}
