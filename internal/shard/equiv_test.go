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
	"spatialjoin/internal/resilience/fault"
)

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

// TestScatterGatherFirstErrorCancels: the first failed unit cancels the
// units not yet started. With GOMAXPROCS 1 the fan-out admits one unit
// at a time, so after the first unit's injected error every other unit
// must skip its work — the fault site is checked once, not once per
// tile pair or tile.
func TestScatterGatherFirstErrorCancels(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t.Cleanup(fault.Disarm)
	rp, sp, cfg := testWorkload(t)
	r, s := Build("R", rp, 4, cfg), Build("S", sp, 4, cfg)
	if n := len(eligiblePairs(r, s, 0)); n < 2 {
		t.Fatalf("%d eligible tile pairs; test is vacuous", n)
	}
	calls := []struct {
		site string
		run  func() error
	}{
		{"tile-join", func() error { _, _, err := Join(context.Background(), r, s); return err }},
		{"tile-query", func() error {
			_, err := Query(context.Background(), r, multistep.ForNearest(geom.Point{X: 0.5, Y: 0.5}, 3))
			return err
		}},
	}
	for _, c := range calls {
		if err := fault.Arm(c.site + ":error"); err != nil {
			t.Fatal(err)
		}
		if err := c.run(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s: %v, want fault.ErrInjected", c.site, err)
		}
		if st := fault.Stats(); len(st) != 1 || st[0].Checks != 1 {
			t.Errorf("%s: injection stats %+v, want one site checked once", c.site, st)
		}
	}
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
