package spatialjoin_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"spatialjoin"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/shard"
)

// TestPublicAPI drives the facade end to end as one table over tile
// count × predicate: every join equals a brute-force oracle, the
// candidate/filter/exact counters do not depend on the tile count,
// queries return ascending global IDs equal to a linear scan, and a
// saved and reopened relation answers with equal pairs and statistics.
func TestPublicAPI(t *testing.T) {
	base := spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 60, TargetVerts: 40, Seed: 99})
	shifted := spatialjoin.ShiftedCopy(base, 0.45)
	cfg := spatialjoin.DefaultConfig()
	cfg.BufferBytes = 8192 // small buffer: the page accounting is non-trivial
	ctx := context.Background()

	const eps = 0.02
	var within []spatialjoin.Pair
	for i, a := range base {
		for j, b := range shifted {
			if a.DistToPolygon(b) <= eps {
				within = append(within, spatialjoin.Pair{A: int32(i), B: int32(j)})
			}
		}
	}
	// Strategy-A copies rarely contain each other, so the inclusion join
	// is the self-join (its diagonal is the response).
	preds := []struct {
		name string
		pred spatialjoin.Predicate
		s    []*spatialjoin.Polygon
		want []spatialjoin.Pair
	}{
		{"intersects", spatialjoin.Intersects(), shifted, multistep.NestedLoopsJoin(base, shifted)},
		{"contains", spatialjoin.Contains(), base, multistep.NestedLoopsContains(base, base)},
		{"within", spatialjoin.WithinDistance(eps), shifted, within},
	}
	win := spatialjoin.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.6, MaxY: 0.6}
	pt := spatialjoin.Point{X: 0.5, Y: 0.5}
	scan := func(keep func(p *spatialjoin.Polygon) bool) []int32 {
		var ids []int32
		for i, p := range base {
			if keep(p) {
				ids = append(ids, int32(i))
			}
		}
		return ids
	}
	queries := []struct {
		name string
		opts []spatialjoin.Option
		want []int32
	}{
		{"window", []spatialjoin.Option{spatialjoin.ForWindow(win)},
			scan(func(p *spatialjoin.Polygon) bool { return p.DistToRect(win) == 0 })},
		{"point", []spatialjoin.Option{spatialjoin.ForPoint(pt)},
			scan(func(p *spatialjoin.Polygon) bool { return p.ContainsPoint(pt) })},
		{"range", []spatialjoin.Option{spatialjoin.ForWindow(win), spatialjoin.WithPredicate(spatialjoin.WithinDistance(eps))},
			scan(func(p *spatialjoin.Polygon) bool { return p.DistToRect(win) <= eps })},
	}
	nearest := make([]spatialjoin.Neighbor, len(base))
	for i, p := range base {
		nearest[i] = spatialjoin.Neighbor{ID: int32(i), Dist: p.DistToPoint(pt)}
	}
	slices.SortFunc(nearest, func(a, b spatialjoin.Neighbor) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})

	type counters [5]int64
	counts := map[string]counters{} // per predicate, from the first tile count
	for _, tiles := range []int{1, 3} {
		r := spatialjoin.NewRelation("R", base, tiles, cfg)
		if r.Shards() != tiles || r.Objects() != len(base) {
			t.Fatalf("NewRelation(tiles=%d): %d tiles, %d objects", tiles, r.Shards(), r.Objects())
		}
		dir := filepath.Join(t.TempDir(), "r.store")
		if err := spatialjoin.SaveRelation(dir, r); err != nil {
			t.Fatalf("SaveRelation: %v", err)
		}
		reopened, err := spatialjoin.OpenRelation(dir, cfg)
		if err != nil {
			t.Fatalf("OpenRelation: %v", err)
		}

		for _, pc := range preds {
			t.Run(fmt.Sprintf("tiles=%d/%s", tiles, pc.name), func(t *testing.T) {
				s := spatialjoin.NewRelation("S", pc.s, tiles, cfg)
				pairs, st, err := spatialjoin.Join(ctx, r, s, spatialjoin.WithPredicate(pc.pred))
				if err != nil {
					t.Fatal(err)
				}
				if len(pc.want) == 0 || !reflect.DeepEqual(pairs, pc.want) {
					t.Fatalf("Join returned %d pairs, the oracle %d", len(pairs), len(pc.want))
				}
				got := counters{st.CandidatePairs, st.FilterHits, st.FilterFalseHits, st.ExactTested, st.ExactHits}
				if want, ok := counts[pc.name]; !ok {
					counts[pc.name] = got
				} else if got != want {
					t.Errorf("step counters %v differ from the one-tile run's %v", got, want)
				}
				par, parSt, err := spatialjoin.Join(ctx, r, s, spatialjoin.WithPredicate(pc.pred), spatialjoin.WithWorkers(4))
				if err != nil || !reflect.DeepEqual(par, pairs) || !reflect.DeepEqual(parSt, st) {
					t.Errorf("4-worker join diverged (err %v)", err)
				}
				rePairs, reSt, err := spatialjoin.Join(ctx, reopened, s, spatialjoin.WithPredicate(pc.pred))
				if err != nil || !reflect.DeepEqual(rePairs, pairs) || !reflect.DeepEqual(reSt, st) {
					t.Errorf("reopened relation diverged (err %v):\n got %+v\nwant %+v", err, reSt.Stats, st.Stats)
				}
			})
		}

		for _, q := range queries {
			res, err := spatialjoin.Query(ctx, r, q.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if len(q.want) == 0 || !slices.Equal(res.IDs, q.want) {
				t.Errorf("tiles=%d %s query: ids %v, linear scan %v", tiles, q.name, res.IDs, q.want)
			}
			if re, err := spatialjoin.Query(ctx, reopened, q.opts...); err != nil || !reflect.DeepEqual(re, res) {
				t.Errorf("tiles=%d %s query on the reopened relation diverged (err %v)", tiles, q.name, err)
			}
		}
		nn, err := spatialjoin.Query(ctx, r, spatialjoin.ForNearest(pt, 4))
		if err != nil || !slices.Equal(nn.Neighbors, nearest[:4]) {
			t.Errorf("tiles=%d nearest: %v (err %v), want %v", tiles, nn.Neighbors, err, nearest[:4])
		}

		// EXPLAIN plans the same sub-joins a Join runs, without running.
		s := spatialjoin.NewRelation("S", shifted, tiles, cfg)
		_, st, err := spatialjoin.Join(ctx, r, s)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := spatialjoin.ExplainJoin(ctx, r, s, false, spatialjoin.WithPlan())
		if err != nil || ex.SubJoins != st.SubJoins || len(ex.PerTile) != ex.SubJoins || ex.Explain.Executed {
			t.Errorf("tiles=%d: ExplainJoin = %d sub-joins, %d plans, err %v; the join ran %d", tiles, ex.SubJoins, len(ex.PerTile), err, st.SubJoins)
		}

		// The store refuses a different configuration and a damaged manifest.
		other := cfg
		other.BufferPolicy = spatialjoin.PolicyClock
		if _, err := spatialjoin.OpenRelation(dir, other); !errors.Is(err, spatialjoin.ErrConfigMismatch) {
			t.Errorf("tiles=%d: config mismatch not rejected: %v", tiles, err)
		}
		manifest := filepath.Join(dir, shard.ManifestName)
		blob, err := os.ReadFile(manifest)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifest, blob[:len(blob)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := spatialjoin.OpenRelation(dir, cfg); !errors.Is(err, spatialjoin.ErrBadShardManifest) {
			t.Errorf("tiles=%d: damaged manifest not rejected: %v", tiles, err)
		}
	}

	// Engine and approximation-kind constants are wired: another
	// configuration computes the same response set.
	alt := cfg
	alt.Engine = spatialjoin.EnginePlaneSweep
	alt.Filter.Conservative = spatialjoin.RMBR
	alt.Filter.Progressive = spatialjoin.MEC
	alt.MECPrecision = 5e-3
	pairs, _, err := spatialjoin.Join(ctx, spatialjoin.NewRelation("R", base, 1, alt), spatialjoin.NewRelation("S", shifted, 1, alt))
	if err != nil || !reflect.DeepEqual(pairs, preds[0].want) {
		t.Errorf("alternative configuration changed the response set (err %v)", err)
	}
	if len(spatialjoin.RandomizedCopy(base, 7)) != len(base) {
		t.Error("randomized copy changed cardinality")
	}
	if spatialjoin.NewPolygon([]spatialjoin.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}}).Area() <= 0 {
		t.Error("NewPolygon broken")
	}
}

// TestUnifiedAPIErrors pins the error surface of the entry points.
func TestUnifiedAPIErrors(t *testing.T) {
	base := spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 20, TargetVerts: 24, Seed: 5})
	cfgA := spatialjoin.DefaultConfig()
	cfgB := spatialjoin.DefaultConfig()
	cfgB.Engine = spatialjoin.EnginePlaneSweep
	r := spatialjoin.NewRelation("R", base, 1, cfgA)
	s := spatialjoin.NewRelation("S", base, 3, cfgB)
	ctx := context.Background()

	// Mismatched build configurations are rejected without an override…
	if _, _, err := spatialjoin.Join(ctx, r, s); !errors.Is(err, spatialjoin.ErrConfigMismatch) {
		t.Errorf("mismatched build configs not rejected: %v", err)
	}
	// …and accepted with one.
	if _, _, err := spatialjoin.Join(ctx, r, s, spatialjoin.WithConfig(cfgA)); err != nil {
		t.Errorf("explicit config override rejected: %v", err)
	}
	// Negative ε is invalid.
	if _, _, err := spatialjoin.Join(ctx, r, r,
		spatialjoin.WithPredicate(spatialjoin.WithinDistance(-1))); err == nil {
		t.Error("negative epsilon not rejected")
	}
	// Query requires a target; nearest takes no predicate.
	if _, err := spatialjoin.Query(ctx, r); err == nil {
		t.Error("targetless query not rejected")
	}
	if _, err := spatialjoin.Query(ctx, r,
		spatialjoin.ForNearest(spatialjoin.Point{}, 2),
		spatialjoin.WithPredicate(spatialjoin.Contains())); err == nil {
		t.Error("nearest with predicate not rejected")
	}
	// ForNearest with k ≤ 0 is an empty nearest result, not a point query.
	if res, err := spatialjoin.Query(ctx, r,
		spatialjoin.ForNearest(spatialjoin.Point{X: 0.5, Y: 0.5}, 0)); err != nil || len(res.Neighbors) != 0 || len(res.IDs) != 0 {
		t.Errorf("ForNearest(p, 0) = %v neighbors, %v ids, err %v; want empty result", res.Neighbors, res.IDs, err)
	}
	// Conflicting targets are rejected in every combination.
	if _, err := spatialjoin.Query(ctx, r,
		spatialjoin.ForWindow(spatialjoin.Rect{MaxX: 1, MaxY: 1}),
		spatialjoin.ForNearest(spatialjoin.Point{}, 2)); err == nil {
		t.Error("window+nearest targets not rejected")
	}
	if _, err := spatialjoin.Query(ctx, r,
		spatialjoin.ForWindow(spatialjoin.Rect{MaxX: 1, MaxY: 1}),
		spatialjoin.ForPoint(spatialjoin.Point{})); err == nil {
		t.Error("window+point targets not rejected")
	}

	// WithLimit returns the sorted prefix.
	full, _, err := spatialjoin.Join(ctx, r, r)
	if err != nil {
		t.Fatal(err)
	}
	limited, st, err := spatialjoin.Join(ctx, r, r, spatialjoin.WithLimit(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 3 || !reflect.DeepEqual(limited, full[:3]) {
		t.Errorf("WithLimit(3) returned %v, want prefix of %v", limited, full[:6])
	}
	if st.ResultPairs != int64(len(full)) {
		t.Errorf("WithLimit changed the statistics: %d vs %d", st.ResultPairs, len(full))
	}
}
