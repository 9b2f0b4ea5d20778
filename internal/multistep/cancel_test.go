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

// cancelSeries is a workload with enough result pairs, spread over
// enough result batches, that a mid-join cancellation is observable in
// the count of emitted pairs.
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
// join cancelled on its first streamed pair must surface
// context.Canceled, stop the pipeline well before the full join's work
// is done, and leak no goroutines (checked under -race by the leak guard
// below). The work is counted, not timed: the collector emits every
// result batch it receives, so the pairs the callback sees measure what
// the pipeline still did after the cancellation.
func TestJoinCancellationStopsEarly(t *testing.T) {
	r, s, _ := cancelSeries(t)

	_, full, err := Join(context.Background(), r, s, WithBufferless())
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
	// Two workers: the pairs in flight at the cancellation, and so the
	// count, do not grow with the host's core count.
	_, _, err = Join(ctx, r, s, WithWorkers(2), WithStream(func(Pair) {
		received.Add(1)
		cancel()
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled join returned %v, want context.Canceled", err)
	}
	got := received.Load()
	t.Logf("cancelled join emitted %d of %d pairs", got, full.ResultPairs)
	if got >= full.ResultPairs/2 {
		t.Errorf("cancelled join emitted %d of %d pairs — cancellation did not stop work early",
			got, full.ResultPairs)
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
