package spatialjoin_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"spatialjoin"
)

// TestConcurrentFacadeQueries exercises the per-query access contexts
// through the public facade: one opened Relation pair, many goroutines,
// every query on its own Session — results and statistics must equal
// the solo-run baselines (run under -race in CI).
func TestConcurrentFacadeQueries(t *testing.T) {
	base := spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 60, TargetVerts: 40, Seed: 99})
	shifted := spatialjoin.ShiftedCopy(base, 0.45)
	cfg := spatialjoin.DefaultConfig()
	cfg.BufferBytes = 8192
	r := spatialjoin.NewRelation("R", base, cfg)
	s := spatialjoin.NewRelation("S", shifted, cfg)

	win := spatialjoin.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.6, MaxY: 0.6}
	pt := spatialjoin.Point{X: 0.5, Y: 0.5}

	ctx := context.Background()
	window := func() spatialjoin.QueryResult {
		return mustQuery(t, r, spatialjoin.ForWindow(win), spatialjoin.WithSession(r.NewSession()))
	}
	point := func() spatialjoin.QueryResult {
		return mustQuery(t, r, spatialjoin.ForPoint(pt), spatialjoin.WithSession(r.NewSession()))
	}
	nearest := func() spatialjoin.QueryResult {
		return mustQuery(t, r, spatialjoin.ForNearest(pt, 4), spatialjoin.WithSession(r.NewSession()))
	}
	join := func(opts ...spatialjoin.Option) ([]spatialjoin.Pair, spatialjoin.Stats) {
		// A fresh slice: goroutines share the option lists they pass in.
		opts = append([]spatialjoin.Option{spatialjoin.WithSessions(r.NewSession(), s.NewSession())}, opts...)
		pairs, st, err := spatialjoin.Join(ctx, r, s, opts...)
		if err != nil {
			t.Error(err)
		}
		return pairs, st
	}
	bufferless := []spatialjoin.Option{spatialjoin.WithWorkers(2), spatialjoin.WithBufferless()}
	contains := spatialjoin.WithPredicate(spatialjoin.Contains())

	wantWin, wantPt, wantNN := window(), point(), nearest()
	_, wantJoinSt := join(bufferless...)
	wantCont, wantContSt := join(contains)

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 5 {
			case 0:
				if got := window(); !reflect.DeepEqual(got, wantWin) {
					t.Errorf("goroutine %d: window query diverged", g)
				}
			case 1:
				if got := point(); !reflect.DeepEqual(got, wantPt) {
					t.Errorf("goroutine %d: point query diverged", g)
				}
			case 2:
				if got := nearest(); !reflect.DeepEqual(got, wantNN) {
					t.Errorf("goroutine %d: nearest query diverged", g)
				}
			case 3:
				if _, st := join(bufferless...); !reflect.DeepEqual(st, wantJoinSt) {
					t.Errorf("goroutine %d: join stats diverged", g)
				}
			case 4:
				pairs, st := join(contains)
				if !reflect.DeepEqual(pairs, wantCont) || !reflect.DeepEqual(st, wantContSt) {
					t.Errorf("goroutine %d: inclusion join diverged", g)
				}
			}
		}(g)
	}
	wg.Wait()

	// A Session is an Accessor; the aliases are wired.
	var ax spatialjoin.Accessor = r.NewSession()
	ax.Access(0)
	if ax.Accesses() != 1 {
		t.Error("Session accessor alias broken")
	}
}

// mustQuery runs one facade Query, reporting (not aborting on) an error:
// it is called from the test's worker goroutines.
func mustQuery(t *testing.T, r *spatialjoin.Relation, opts ...spatialjoin.Option) spatialjoin.QueryResult {
	res, err := spatialjoin.Query(context.Background(), r, opts...)
	if err != nil {
		t.Error(err)
	}
	return res
}
