package multistep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/resilience"
	"spatialjoin/internal/resilience/fault"
)

// cancelSeries is a workload with enough result pairs that a mid-join
// cancellation is observable in the count of emitted pairs.
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
// below). The work is counted, not timed: every decided pair is emitted
// as it is found, so the pairs the callback sees measure what the
// workers still did after the cancellation.
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

// TestJoinExactPanicFailsClosed arms a panic at the exact-decision site
// mid-join. The decision recovers it on the worker that found the pair —
// the calling goroutine on one worker, step 1's traversal workers on two
// — and the join fails closed: a *resilience.PanicError at site "exact",
// no pairs, and no goroutine left behind.
func TestJoinExactPanicFailsClosed(t *testing.T) {
	r, s, _ := cancelSeries(t)
	if r.Tree.Height() < 2 || s.Tree.Height() < 2 {
		t.Fatalf("trees of height %d and %d; the partitioned traversal would not run",
			r.Tree.Height(), s.Tree.Height())
	}
	_, full, err := Join(context.Background(), r, s, WithBufferless())
	if err != nil {
		t.Fatal(err)
	}
	const every = 50
	if full.ExactTested < 2*every {
		t.Fatalf("only %d exact tests; the injection would not fire mid-join", full.ExactTested)
	}
	for _, workers := range []int{1, 2} {
		before := runtime.NumGoroutine()
		if err := fault.Arm(fmt.Sprintf("exact:panic@%d", every)); err != nil {
			t.Fatal(err)
		}
		pairs, _, err := Join(context.Background(), r, s, WithWorkers(workers))
		fault.Disarm()
		var pe *resilience.PanicError
		if !errors.As(err, &pe) || pe.Site != "exact" {
			t.Fatalf("workers=%d: err = %v, want a PanicError at site exact", workers, err)
		}
		if pairs != nil {
			t.Errorf("workers=%d: a failed join returned %d pairs", workers, len(pairs))
		}
		waitForGoroutines(t, before)
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
