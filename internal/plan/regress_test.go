package plan_test

// The planner's headline guarantee, enforced here end to end: across
// the experiment grid (three predicates × three vertex classes × three
// exact engines × filter on/off), the planner-chosen execution is never
// worse than 1.5× the best static configuration, and strictly better
// than the worst one whenever the grid has a meaningful spread. The
// bit-exactness test pins the override contract: a fully pinned planned
// join executes identically to the unplanned call.

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"spatialjoin/internal/data"
	"spatialjoin/internal/multistep"
)

// buildPair builds the regression workload: the section 5 style
// synthetic maps of n cells at a target vertex count.
func buildPair(t testing.TB, n, verts int) (*multistep.Relation, *multistep.Relation, multistep.Config) {
	t.Helper()
	cfg := multistep.DefaultConfig()
	base := data.GenerateMap(data.MapConfig{Cells: n, TargetVerts: verts, Seed: 7321})
	shifted := data.StrategyA(base, 0.45)
	r := multistep.NewRelation("R", base, cfg)
	s := multistep.NewRelation("S", shifted, cfg)
	return r, s, cfg
}

// timeJoin returns the fastest of 1+reps runs of the join — the robust
// wall-clock estimator under scheduler noise (the first run doubles as
// the warm-up paying the lazy exact representations). A run still going
// after limit (if > 0) is cancelled and counts as limit.
func timeJoin(t *testing.T, r, s *multistep.Relation, reps int, limit time.Duration, opts ...multistep.Option) time.Duration {
	t.Helper()
	opts = append(opts, multistep.WithBufferless())
	run := func() time.Duration {
		ctx := context.Background()
		if limit > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, limit)
			defer cancel()
		}
		t0 := time.Now()
		_, _, err := multistep.Join(ctx, r, s, opts...)
		if errors.Is(err, context.DeadlineExceeded) {
			return limit
		}
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	best := run()
	for i := 0; i < reps; i++ {
		if d := run(); d < best {
			best = d
		}
	}
	return best
}

var regressEngines = []multistep.Engine{
	multistep.EngineTRStar, multistep.EnginePlaneSweep, multistep.EngineQuadratic,
}

func regressPreds() []struct {
	name string
	pred multistep.Predicate
} {
	return []struct {
		name string
		pred multistep.Predicate
	}{
		{"intersects", multistep.Intersects()},
		{"within", multistep.WithinDistance(0.005)},
		{"contains", multistep.Contains()},
	}
}

// TestPlannerWithinBoundOfBestStatic is the 1.5× guarantee: for every
// predicate and vertex class, the planner-chosen execution must cost at
// most 1.5× the best static engine×filter cell (plus a small absolute
// slack — at sub-millisecond cell times the ratio alone is scheduler
// noise), and must strictly beat the worst static cell whenever the
// grid spreads by more than 2×. A static cell still running at the
// bound of the best cell so far cannot be the best one, so it is cut
// off there; quadratic cells above 48 vertices, seconds each, are
// skipped.
func TestPlannerWithinBoundOfBestStatic(t *testing.T) {
	reps := 3
	if testing.Short() {
		reps = 2
	}
	const slack = 25 * time.Millisecond
	bound := func(best time.Duration) time.Duration { return best + best/2 + slack }
	// The low and middle classes are sized so that their best intersects
	// and within cells take about 10 ms, where the slack cannot hide a
	// misplan. At 1,200 vertices a 10 ms TR*-tree cell would need some
	// 2,500 objects and over a minute of map generation; 40 objects put
	// the plane-sweep cells at several times the bound instead, which is
	// the misplan a cost model calibrated at 48 vertices makes there.
	classes := []struct {
		name     string
		verts, n int
		r, s     *multistep.Relation
		cfg      multistep.Config
	}{{name: "8v", verts: 8, n: 2000}, {name: "48v", verts: 48, n: 800}, {name: "1200v", verts: 1200, n: 40}}
	for i := range classes {
		c := &classes[i]
		c.r, c.s, c.cfg = buildPair(t, c.n, c.verts)
	}

	for _, pc := range regressPreds() {
		t.Run(pc.name, func(t *testing.T) {
			for _, w := range classes {
				t.Run(w.name, func(t *testing.T) {
					var best, worst time.Duration
					var bestName, worstName string
					for _, eng := range regressEngines {
						if eng == multistep.EngineQuadratic && w.verts > 48 {
							continue
						}
						for _, filt := range []bool{true, false} {
							c := w.cfg
							c.Engine = eng
							c.UseFilter = filt
							var limit time.Duration
							if best > 0 {
								limit = bound(best)
							}
							d := timeJoin(t, w.r, w.s, reps, limit,
								multistep.WithConfig(c), multistep.WithPredicate(pc.pred), multistep.WithWorkers(1))
							name := eng.String()
							if !filt {
								name += "/nofilter"
							}
							if limit > 0 && d >= limit {
								name += ", cut off"
							}
							if best == 0 || d < best {
								best, bestName = d, name
							}
							if d > worst {
								worst, worstName = d, name
							}
						}
					}
					got := timeJoin(t, w.r, w.s, reps, 0,
						multistep.WithPlan(), multistep.WithPredicate(pc.pred))
					t.Logf("%.0f mean vertices: planner %v vs best %v (%s), worst %v (%s)",
						w.r.Stats.MeanVerts, got, best, bestName, worst, worstName)
					if b := bound(best); got > b {
						t.Errorf("planner took %v, above the 1.5× bound %v of best static %v (%s)",
							got, b, best, bestName)
					}
					if worst > 2*best && got >= worst {
						t.Errorf("planner took %v, not better than the worst static %v (%s) despite a %0.1f× grid spread",
							got, worst, worstName, float64(worst)/float64(best))
					}
				})
			}
		})
	}
}

// TestExplicitOptionsOverridePlannerBitExact pins the override
// contract: WithConfig and WithWorkers reach the planner as one-element
// candidate lists, so a fully pinned planned join returns exactly the
// response set and statistics of the unplanned call — bit for bit,
// including the page accounting.
func TestExplicitOptionsOverridePlannerBitExact(t *testing.T) {
	r, s, cfg := buildPair(t, 300, 48)
	ctx := context.Background()
	for _, eng := range regressEngines {
		for _, pc := range regressPreds() {
			c := cfg
			c.Engine = eng
			base, bst, err := multistep.Join(ctx, r, s,
				multistep.WithConfig(c), multistep.WithPredicate(pc.pred), multistep.WithWorkers(1))
			if err != nil {
				t.Fatalf("%s/%s: %v", eng, pc.name, err)
			}
			planned, pst, err := multistep.Join(ctx, r, s,
				multistep.WithPlan(),
				multistep.WithConfig(c), multistep.WithPredicate(pc.pred), multistep.WithWorkers(1))
			if err != nil {
				t.Fatalf("%s/%s planned: %v", eng, pc.name, err)
			}
			if !reflect.DeepEqual(base, planned) {
				t.Errorf("%s/%s: pinned planned join returned a different response set (%d vs %d pairs)",
					eng, pc.name, len(planned), len(base))
			}
			if !reflect.DeepEqual(bst, pst) {
				t.Errorf("%s/%s: pinned planned join returned different statistics:\nstatic  %+v\nplanned %+v",
					eng, pc.name, bst, pst)
			}
		}
	}
}
