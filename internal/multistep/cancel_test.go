package multistep

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
)

// cancelSeries is a workload whose join takes long enough (hundreds of
// milliseconds even on one CPU) that a mid-join cancellation is
// observable.
func cancelSeries(t testing.TB) (*Relation, *Relation, Config) {
	t.Helper()
	rp := data.GenerateMap(data.MapConfig{Cells: 700, TargetVerts: 56, HoleFraction: 0.1, Seed: 601})
	sp := data.StrategyA(rp, 0.45)
	cfg := DefaultConfig()
	cfg.UseFilter = false // every candidate reaches the exact step: maximal work
	cfg.Engine = EngineQuadratic
	return NewRelation("R", rp, cfg), NewRelation("S", sp, cfg), cfg
}

// TestJoinCancellationStopsEarly is the cancellation acceptance test: a
// cancelled context must surface context.Canceled, stop the pipeline
// well before the full join completes (observed wall-clock), and leak no
// goroutines (checked under -race by the leak guard below).
func TestJoinCancellationStopsEarly(t *testing.T) {
	r, s, _ := cancelSeries(t)

	// Full join wall time as the yardstick.
	start := time.Now()
	_, full, err := Join(context.Background(), r, s, WithBufferless())
	if err != nil {
		t.Fatal(err)
	}
	fullWall := time.Since(start)
	if full.ResultPairs == 0 {
		t.Fatal("workload joins to nothing; test is vacuous")
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var emitted atomic.Int64
	go func() {
		// Cancel as soon as the pipeline demonstrably started working.
		for {
			if emitted.Load() > 0 {
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	start = time.Now()
	_, _, err = Join(ctx, r, s, WithStream(func(Pair) { emitted.Add(1) }))
	cancelledWall := time.Since(start)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled join returned %v, want context.Canceled", err)
	}

	// The cancelled run must not have done the full work. The bound is
	// deliberately loose (half the full wall) to stay robust on loaded
	// CI hosts; in practice the stop is near-immediate.
	if fullWall > 200*time.Millisecond && cancelledWall > fullWall/2 {
		t.Errorf("cancelled join took %v of a %v full join — cancellation did not stop work early",
			cancelledWall, fullWall)
	}

	waitForGoroutines(t, before)
}

// TestJoinCancelledBeforeStart returns immediately with the context
// error and leaks nothing.
func TestJoinCancelledBeforeStart(t *testing.T) {
	r, s, _ := cancelSeries(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Join(ctx, r, s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled join returned %v, want context.Canceled", err)
	}
	waitForGoroutines(t, before)
}

// TestJoinCancelledOnSessions: a pre-cancelled join on per-query
// sessions — the way internal/shard runs every sub-join — surfaces the
// context error too.
func TestJoinCancelledOnSessions(t *testing.T) {
	r, s, _ := cancelSeries(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Join(ctx, r, s, WithSessions(r.NewSession(), s.NewSession()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestQueryCancellation covers the single-relation entry point: a
// cancelled context surfaces the error.
func TestQueryCancellation(t *testing.T) {
	r, _, _ := cancelSeries(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Query(ctx, r, ForNearest(geom.Point{X: 0.5, Y: 0.5}, 3)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled nearest query returned %v", err)
	}
}

// waitForGoroutines polls until the goroutine count returns to (at most)
// the baseline, failing after a generous deadline — the no-leak check of
// the cancellation acceptance criteria.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
