package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
)

var shardCounts = []int{1, 2, 4}

// TestJoinEquivalence is the core acceptance criterion: for every
// predicate and every shard count, the scatter-gather join returns
// byte-identical pairs to the unsharded join, and the aggregated
// candidate/filter/exact counters sum to the unsharded run's.
func TestJoinEquivalence(t *testing.T) {
	rp, sp, cfg := testWorkload(t)
	// The translated overlay exercises intersects and within-ε; the
	// contains predicate needs actual containments, so its S relation
	// shrinks every R object toward its MBR center.
	shrunk := make([]*geom.Polygon, len(rp))
	for i, p := range rp {
		c := p.Bounds().Center()
		shrunk[i] = p.Transform(func(q geom.Point) geom.Point {
			return geom.Point{X: c.X + (q.X-c.X)*0.25, Y: c.Y + (q.Y-c.Y)*0.25}
		})
	}
	preds := []struct {
		pred multistep.Predicate
		sp   []*geom.Polygon
	}{
		{multistep.Intersects(), sp},
		{multistep.Contains(), shrunk},
		{multistep.WithinDistance(0.02), sp},
	}
	for _, pc := range preds {
		pred, sp := pc.pred, pc.sp
		r := multistep.NewRelation("R", rp, cfg)
		s := multistep.NewRelation("S", sp, cfg)
		want, wantSt, err := multistep.Join(context.Background(), r, s, multistep.WithPredicate(pred))
		if err != nil {
			t.Fatal(err)
		}
		if wantSt.ResultPairs == 0 {
			t.Fatalf("%v: workload joins to nothing; test is vacuous", pred)
		}
		for _, n := range shardCounts {
			shR := Build("R", rp, n, cfg)
			shS := Build("S", sp, n, cfg)
			got, gotSt, err := Join(context.Background(), shR, shS, multistep.WithPredicate(pred))
			if err != nil {
				t.Fatalf("%v n=%d: %v", pred, n, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v n=%d: %d pairs, want %d; responses differ", pred, n, len(got), len(want))
			}
			type counts struct{ cand, fh, ffh, et, eh, rp int64 }
			w := counts{wantSt.CandidatePairs, wantSt.FilterHits, wantSt.FilterFalseHits, wantSt.ExactTested, wantSt.ExactHits, wantSt.ResultPairs}
			g := counts{gotSt.CandidatePairs, gotSt.FilterHits, gotSt.FilterFalseHits, gotSt.ExactTested, gotSt.ExactHits, gotSt.ResultPairs}
			if g != w {
				t.Errorf("%v n=%d: aggregated stats %+v, want %+v", pred, n, g, w)
			}
			// Per-tile accounting must itself sum to the aggregate.
			var sub counts
			for _, ps := range gotSt.PerTile {
				sub.cand += ps.Stats.CandidatePairs
				sub.fh += ps.Stats.FilterHits
				sub.ffh += ps.Stats.FilterFalseHits
				sub.et += ps.Stats.ExactTested
				sub.eh += ps.Stats.ExactHits
				sub.rp += ps.Stats.ResultPairs
			}
			if sub != g {
				t.Errorf("%v n=%d: per-tile stats %+v don't sum to aggregate %+v", pred, n, sub, g)
			}
			if len(gotSt.PerTile) != gotSt.SubJoins {
				t.Errorf("%v n=%d: %d per-tile entries for %d sub-joins", pred, n, len(gotSt.PerTile), gotSt.SubJoins)
			}
		}
	}
}

// TestJoinLimitIsGlobalSortedPrefix: a WithLimit cap on the
// scatter-gather join returns the prefix of the globally sorted
// response, not a first-arrived subset, in an allocation of exactly its
// size — a caller who keeps it keeps nothing of the rest.
func TestJoinLimitIsGlobalSortedPrefix(t *testing.T) {
	rp, sp, cfg := testWorkload(t)
	r := multistep.NewRelation("R", rp, cfg)
	s := multistep.NewRelation("S", sp, cfg)
	want, _, err := multistep.Join(context.Background(), r, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 1, 7, 50, len(want) - 1, len(want) + 10} {
		wantCap := want
		if limit < len(want) {
			wantCap = want[:limit]
		}
		for _, n := range shardCounts {
			shR, shS := Build("R", rp, n, cfg), Build("S", sp, n, cfg)
			got, _, err := Join(context.Background(), shR, shS, multistep.WithLimit(limit))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, wantCap) {
				t.Fatalf("n=%d limit=%d: got %d pairs, want the global sorted prefix of %d", n, limit, len(got), len(wantCap))
			}
			if cap(got) != len(wantCap) {
				t.Errorf("n=%d limit=%d: cap(pairs) = %d, want %d", n, limit, cap(got), len(wantCap))
			}
		}
	}
}

// TestJoinStreamMatchesCollect: streaming emits exactly the collected
// response set (as a set — arrival order is unspecified), with global
// IDs, and the stats agree.
func TestJoinStreamMatchesCollect(t *testing.T) {
	rp, sp, cfg := testWorkload(t)
	shR, shS := Build("R", rp, 4, cfg), Build("S", sp, 4, cfg)
	want, wantSt, err := Join(context.Background(), shR, shS)
	if err != nil {
		t.Fatal(err)
	}
	var got []multistep.Pair
	ps, gotSt, err := Join(context.Background(), shR, shS,
		multistep.WithStream(func(p multistep.Pair) { got = append(got, p) }))
	if err != nil {
		t.Fatal(err)
	}
	if ps != nil {
		t.Error("streaming join must not also collect")
	}
	slices.SortFunc(got, func(p, q multistep.Pair) int {
		if p.A != q.A {
			return int(p.A - q.A)
		}
		return int(p.B - q.B)
	})
	if !slices.Equal(got, want) {
		t.Fatalf("streamed %d pairs differ from collected %d", len(got), len(want))
	}
	if gotSt.ResultPairs != wantSt.ResultPairs || gotSt.CandidatePairs != wantSt.CandidatePairs {
		t.Errorf("streaming stats differ: %d/%d pairs, %d/%d candidates",
			gotSt.ResultPairs, wantSt.ResultPairs, gotSt.CandidatePairs, wantSt.CandidatePairs)
	}
}

// sortedIDs is the unsharded query response brought into the sharded
// contract's order (ascending global IDs).
func sortedIDs(ids []int32) []int32 {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// TestQueryEquivalence covers window, point, ε-range and nearest targets
// across shard counts, including the Stats sums.
func TestQueryEquivalence(t *testing.T) {
	rp, _, cfg := testWorkload(t)
	r := multistep.NewRelation("R", rp, cfg)
	win := geom.Rect{MinX: 0.2, MinY: 0.25, MaxX: 0.55, MaxY: 0.6}
	pt := geom.Point{X: 0.4, Y: 0.45}
	cases := []struct {
		name string
		opts []multistep.Option
	}{
		{"window", []multistep.Option{multistep.ForWindow(win)}},
		{"window-within", []multistep.Option{multistep.ForWindow(win), multistep.WithPredicate(multistep.WithinDistance(0.03))}},
		{"point", []multistep.Option{multistep.ForPoint(pt)}},
		{"nearest", []multistep.Option{multistep.ForNearest(pt, 7)}},
	}
	for _, tc := range cases {
		want, err := multistep.Query(context.Background(), r, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if want.Stats.ResultObjects == 0 {
			t.Fatalf("%s: empty baseline; test is vacuous", tc.name)
		}
		for _, n := range shardCounts {
			sh := Build("R", rp, n, cfg)
			got, err := Query(context.Background(), sh, tc.opts...)
			if err != nil {
				t.Fatalf("%s n=%d: %v", tc.name, n, err)
			}
			if !slices.Equal(got.IDs, sortedIDs(want.IDs)) {
				t.Fatalf("%s n=%d: IDs %v, want %v", tc.name, n, got.IDs, sortedIDs(want.IDs))
			}
			if !slices.Equal(got.Neighbors, want.Neighbors) {
				t.Fatalf("%s n=%d: neighbors %v, want %v", tc.name, n, got.Neighbors, want.Neighbors)
			}
			if got.Stats.ResultObjects != want.Stats.ResultObjects {
				t.Errorf("%s n=%d: %d results, want %d", tc.name, n, got.Stats.ResultObjects, want.Stats.ResultObjects)
			}
			if tc.name != "nearest" {
				// Disjoint tiles: per-object counters sum exactly.
				if got.Stats.Candidates != want.Stats.Candidates ||
					got.Stats.FilterHits != want.Stats.FilterHits ||
					got.Stats.FilterFalseHits != want.Stats.FilterFalseHits ||
					got.Stats.ExactTested != want.Stats.ExactTested {
					t.Errorf("%s n=%d: stats %+v, want %+v", tc.name, n, got.Stats.WindowStats, want.Stats)
				}
			}
			var pages int64
			for _, ts := range got.Stats.Tiles {
				pages += ts.Stats.PageAccesses
			}
			if pages != got.Stats.PageAccesses {
				t.Errorf("%s n=%d: per-tile pages %d don't sum to aggregate %d", tc.name, n, pages, got.Stats.PageAccesses)
			}
		}
	}
}

// TestQueryLimitIsSortedPrefix: the query limit truncates the merged
// ascending-ID response, not the per-tile delivery order.
func TestQueryLimitIsSortedPrefix(t *testing.T) {
	rp, _, cfg := testWorkload(t)
	sh := Build("R", rp, 4, cfg)
	win := geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.8, MaxY: 0.8}
	full, err := Query(context.Background(), sh, multistep.ForWindow(win))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.IDs) < 4 {
		t.Fatal("window too small; test is vacuous")
	}
	capped, err := Query(context.Background(), sh, multistep.ForWindow(win), multistep.WithLimit(3))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(capped.IDs, full.IDs[:3]) {
		t.Errorf("limit 3: %v, want prefix %v", capped.IDs, full.IDs[:3])
	}
}

// TestJoinConfigMismatch: sharded relations built under different
// configurations refuse to join, as the single-relation path does.
func TestJoinConfigMismatch(t *testing.T) {
	rp, sp, cfg := testWorkload(t)
	other := cfg
	other.Engine = multistep.EngineQuadratic
	shR, shS := Build("R", rp, 2, cfg), Build("S", sp, 2, other)
	if _, _, err := Join(context.Background(), shR, shS); !errors.Is(err, multistep.ErrConfigMismatch) {
		t.Errorf("mismatched configs joined: %v", err)
	}
	// An explicit WithConfig overrides the check, as in multistep.
	if _, _, err := Join(context.Background(), shR, shS, multistep.WithConfig(cfg)); err != nil {
		t.Errorf("WithConfig override failed: %v", err)
	}
}

// TestQueryTargetValidation mirrors the single-relation target errors.
func TestQueryTargetValidation(t *testing.T) {
	rp, _, cfg := testWorkload(t)
	sh := Build("R", rp, 2, cfg)
	if _, err := Query(context.Background(), sh); !errors.Is(err, multistep.ErrNoTarget) {
		t.Errorf("no target: %v, want ErrNoTarget", err)
	}
	if _, err := Query(context.Background(), sh,
		multistep.ForWindow(geom.Rect{MaxX: 1, MaxY: 1}),
		multistep.WithPredicate(multistep.Contains())); !errors.Is(err, multistep.ErrBadPredicate) {
		t.Errorf("contains window: %v, want ErrBadPredicate", err)
	}
	if _, err := Query(context.Background(), sh,
		multistep.ForNearest(geom.Point{X: 0.5, Y: 0.5}, 3),
		multistep.WithPredicate(multistep.WithinDistance(0.1))); !errors.Is(err, multistep.ErrBadPredicate) {
		t.Errorf("nearest with predicate: %v, want ErrBadPredicate", err)
	}
	// A window with swapped corners is an error, not an empty answer, and
	// the single-relation entry point rejects it with the same words.
	inverted := geom.Rect{MinX: 0.6, MinY: 0.6, MaxX: 0.4, MaxY: 0.4}
	for _, opts := range [][]multistep.Option{
		{multistep.ForWindow(inverted)},
		{multistep.ForWindow(inverted), multistep.WithPredicate(multistep.WithinDistance(0.2))},
		{multistep.ForWindow(geom.Rect{MinX: 0.4, MinY: 0.6, MaxX: 0.6, MaxY: 0.4})},
	} {
		_, shardErr := Query(context.Background(), sh, opts...)
		_, soloErr := multistep.Query(context.Background(), sh.Tiles[0].Rel, opts...)
		if shardErr == nil || soloErr == nil || shardErr.Error() != soloErr.Error() {
			t.Errorf("inverted window: shard.Query %v, multistep.Query %v; want the same error", shardErr, soloErr)
		}
	}
}

// TestNearestTiesResolveByID: forty coincident squares leave the nearest
// three to the (distance, ID) order alone, and the answer must not depend
// on how many tiles they are dealt into or on the shape of a tile's tree.
// The per-tile search used to stop with objects tied at the k-th distance
// unexamined and answered 14, 29, 30 on one tile.
func TestNearestTiesResolveByID(t *testing.T) {
	polys := make([]*geom.Polygon, 40)
	for i := range polys {
		polys[i] = geom.NewPolygon([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}})
	}
	want := []multistep.Neighbor{{ID: 0}, {ID: 1}, {ID: 2}}
	for _, tiles := range []int{1, 4} {
		sh := Build("R", polys, tiles, multistep.DefaultConfig())
		got, err := Query(context.Background(), sh, multistep.ForNearest(geom.Point{X: 0.5, Y: 0.5}, 3))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Neighbors, want) {
			t.Errorf("%d tiles: neighbours %v, want %v", tiles, got.Neighbors, want)
		}
	}
}

// cancelWorkload is multistep's cancelSeries split into tiles: enough
// result pairs over enough sub-joins that a mid-join cancellation shows
// in the count of emitted pairs.
func cancelWorkload(t testing.TB) (*Sharded, *Sharded) {
	t.Helper()
	rp := data.GenerateMap(data.MapConfig{Cells: 700, TargetVerts: 56, HoleFraction: 0.1, Seed: 601})
	sp := data.StrategyA(rp, 0.45)
	cfg := multistep.DefaultConfig()
	cfg.UseFilter = false // every candidate reaches the exact step: maximal work
	cfg.Engine = multistep.EngineQuadratic
	return Build("R", rp, 3, cfg), Build("S", sp, 3, cfg)
}

// TestScatterGatherCancellationStopsEarly extends
// TestJoinCancellationStopsEarly to the tile fan-out: cancelling the
// scatter-gather join on its first streamed pair must cancel every tile
// sub-join, return context.Canceled with fewer than half of the full
// join's pairs emitted, and leak no goroutines.
func TestScatterGatherCancellationStopsEarly(t *testing.T) {
	r, s := cancelWorkload(t)

	_, full, err := Join(context.Background(), r, s, multistep.WithBufferless())
	if err != nil {
		t.Fatal(err)
	}
	if full.ResultPairs == 0 {
		t.Fatal("workload joins to nothing; test is vacuous")
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var received atomic.Int64
	// One worker per sub-join: the pairs in flight at the cancellation,
	// and so the count, grow only with the sub-joins running at once.
	_, _, err = Join(ctx, r, s, multistep.WithWorkers(1), multistep.WithStream(func(multistep.Pair) {
		received.Add(1)
		cancel()
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scatter-gather join returned %v, want context.Canceled", err)
	}
	got := received.Load()
	t.Logf("cancelled join emitted %d of %d pairs", got, full.ResultPairs)
	if got >= full.ResultPairs/2 {
		t.Errorf("cancelled join emitted %d of %d pairs — fan-out cancellation did not stop work early",
			got, full.ResultPairs)
	}
	waitForGoroutines(t, before)
}

// TestScatterGatherCancelledBeforeStart: a pre-cancelled context returns
// immediately without leaking the fan-out goroutines.
func TestScatterGatherCancelledBeforeStart(t *testing.T) {
	rp, sp, cfg := testWorkload(t)
	r, s := Build("R", rp, 4, cfg), Build("S", sp, 4, cfg)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Join(ctx, r, s); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled join returned %v", err)
	}
	if _, err := Query(ctx, r, multistep.ForNearest(geom.Point{X: 0.5, Y: 0.5}, 3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled query returned %v", err)
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines polls until the goroutine count returns to (at most)
// the baseline — the no-leak check, as in multistep's cancellation suite.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentMixedQueries is the PR 3-style fleet against one shared
// sharded pair: joins, window, point and nearest queries race on the
// same tiles and must reproduce their sequential baselines exactly
// (run under -race in CI).
func TestConcurrentMixedQueries(t *testing.T) {
	rp, sp, cfg := testWorkload(t)
	shR, shS := Build("R", rp, 4, cfg), Build("S", sp, 4, cfg)
	win := geom.Rect{MinX: 0.2, MinY: 0.25, MaxX: 0.55, MaxY: 0.6}
	pt := geom.Point{X: 0.4, Y: 0.45}

	basePairs, _, err := Join(context.Background(), shR, shS)
	if err != nil {
		t.Fatal(err)
	}
	baseWin, err := Query(context.Background(), shR, multistep.ForWindow(win))
	if err != nil {
		t.Fatal(err)
	}
	basePt, err := Query(context.Background(), shR, multistep.ForPoint(pt))
	if err != nil {
		t.Fatal(err)
	}
	baseNear, err := Query(context.Background(), shR, multistep.ForNearest(pt, 5))
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch (w + i) % 4 {
				case 0:
					ps, _, err := Join(context.Background(), shR, shS)
					if err == nil && !slices.Equal(ps, basePairs) {
						err = fmt.Errorf("concurrent join diverged: %d pairs, want %d", len(ps), len(basePairs))
					}
					if err != nil {
						errs <- err
					}
				case 1:
					qr, err := Query(context.Background(), shR, multistep.ForWindow(win))
					if err == nil && !slices.Equal(qr.IDs, baseWin.IDs) {
						err = fmt.Errorf("concurrent window diverged: %v", qr.IDs)
					}
					if err != nil {
						errs <- err
					}
				case 2:
					qr, err := Query(context.Background(), shR, multistep.ForPoint(pt))
					if err == nil && !slices.Equal(qr.IDs, basePt.IDs) {
						err = fmt.Errorf("concurrent point diverged: %v", qr.IDs)
					}
					if err != nil {
						errs <- err
					}
				case 3:
					qr, err := Query(context.Background(), shR, multistep.ForNearest(pt, 5))
					if err == nil && !slices.Equal(qr.Neighbors, baseNear.Neighbors) {
						err = fmt.Errorf("concurrent nearest diverged: %v", qr.Neighbors)
					}
					if err != nil {
						errs <- err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEmptyRelationJoins: an empty sharded relation joins and queries
// without error.
func TestEmptyRelationJoins(t *testing.T) {
	rp, _, cfg := testWorkload(t)
	empty := Build("E", nil, 4, cfg)
	full := Build("R", rp, 2, cfg)
	ps, st, err := Join(context.Background(), empty, full)
	if err != nil || len(ps) != 0 || st.ResultPairs != 0 {
		t.Errorf("empty join: %d pairs, stats %+v, err %v", len(ps), st.Stats, err)
	}
	qr, err := Query(context.Background(), empty, multistep.ForWindow(geom.Rect{MaxX: 1, MaxY: 1}))
	if err != nil || len(qr.IDs) != 0 {
		t.Errorf("empty window query: %v, err %v", qr.IDs, err)
	}
}
