package spatialjoin_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"spatialjoin"
)

// TestConcurrentFacadeQueries: every facade call opens page-access
// sessions of its own, so plain Join and Query calls from many
// goroutines on one relation pair need no coordination — results and
// statistics, page accesses included, must equal the solo-run baselines
// (run under -race in CI).
func TestConcurrentFacadeQueries(t *testing.T) {
	base := spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 60, TargetVerts: 40, Seed: 99})
	shifted := spatialjoin.ShiftedCopy(base, 0.45)
	cfg := spatialjoin.DefaultConfig()
	cfg.BufferBytes = 8192
	r := spatialjoin.NewRelation("R", base, 3, cfg)
	s := spatialjoin.NewRelation("S", shifted, 1, cfg)

	ctx := context.Background()
	query := func(opts ...spatialjoin.Option) spatialjoin.QueryResult {
		res, err := spatialjoin.Query(ctx, r, opts...)
		if err != nil {
			t.Error(err)
		}
		return res
	}
	join := func(opts ...spatialjoin.Option) ([]spatialjoin.Pair, spatialjoin.Stats) {
		pairs, st, err := spatialjoin.Join(ctx, r, s, opts...)
		if err != nil {
			t.Error(err)
		}
		return pairs, st
	}
	pt := spatialjoin.Point{X: 0.5, Y: 0.5}
	calls := []func() any{
		func() any {
			return query(spatialjoin.ForWindow(spatialjoin.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.6, MaxY: 0.6}))
		},
		func() any { return query(spatialjoin.ForPoint(pt)) },
		func() any { return query(spatialjoin.ForNearest(pt, 4)) },
		func() any { _, st := join(spatialjoin.WithWorkers(2), spatialjoin.WithBufferless()); return st },
		func() any {
			pairs, st := join(spatialjoin.WithPredicate(spatialjoin.Contains()))
			return []any{pairs, st}
		},
	}
	want := make([]any, len(calls))
	for i, call := range calls {
		want[i] = call()
	}

	const goroutines = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if got := calls[g%len(calls)](); !reflect.DeepEqual(got, want[g%len(calls)]) {
				t.Errorf("goroutine %d: call %d diverged from its solo run", g, g%len(calls))
			}
		}(g)
	}
	wg.Wait()
}
