package spatialjoin_test

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"spatialjoin"
)

// TestPublicAPI exercises the facade end to end: generation, intersection
// join, parallel join, inclusion join, window and point queries.
func TestPublicAPI(t *testing.T) {
	base := spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 60, TargetVerts: 40, Seed: 99})
	shifted := spatialjoin.ShiftedCopy(base, 0.45)
	cfg := spatialjoin.DefaultConfig()

	r := spatialjoin.NewRelation("R", base, cfg)
	s := spatialjoin.NewRelation("S", shifted, cfg)

	ctx := context.Background()
	pairs, st, err := spatialjoin.Join(ctx, r, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 || st.CandidatePairs == 0 {
		t.Fatal("join produced nothing")
	}
	par, _, err := spatialjoin.Join(ctx, r, s, spatialjoin.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(pairs) {
		t.Fatalf("parallel join %d pairs, sequential %d", len(par), len(pairs))
	}

	cont, _, err := spatialjoin.Join(ctx, r, r, spatialjoin.WithPredicate(spatialjoin.Contains()))
	if err != nil {
		t.Fatal(err)
	}
	selfCount := 0
	for _, p := range cont {
		if p.A == p.B {
			selfCount++
		}
	}
	if selfCount != len(base) {
		t.Errorf("inclusion join self pairs = %d, want %d", selfCount, len(base))
	}

	win, err := spatialjoin.Query(ctx, r, spatialjoin.ForWindow(spatialjoin.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.6, MaxY: 0.6}))
	if err != nil {
		t.Fatal(err)
	}
	if len(win.IDs) == 0 || win.Stats.Candidates == 0 {
		t.Error("window query found nothing in the map center")
	}
	ptRes, err := spatialjoin.Query(ctx, r, spatialjoin.ForPoint(spatialjoin.Point{X: 0.5, Y: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if len(ptRes.IDs) > 2 {
		t.Errorf("point query in a tiling found %d covering objects", len(ptRes.IDs))
	}

	// The within-distance predicate supersets the intersection join and
	// degenerates to it at ε = 0.
	atZero, _, err := spatialjoin.Join(ctx, r, s,
		spatialjoin.WithPredicate(spatialjoin.WithinDistance(0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(atZero) != len(pairs) {
		t.Errorf("WithinDistance(0) returned %d pairs, Intersects %d", len(atZero), len(pairs))
	}
	near, _, err := spatialjoin.Join(ctx, r, s,
		spatialjoin.WithPredicate(spatialjoin.WithinDistance(0.02)))
	if err != nil {
		t.Fatal(err)
	}
	if len(near) < len(pairs) {
		t.Errorf("ε-join returned fewer pairs (%d) than the intersection join (%d)", len(near), len(pairs))
	}

	randomized := spatialjoin.RandomizedCopy(base, 7)
	if len(randomized) != len(base) {
		t.Error("randomized copy changed cardinality")
	}

	poly := spatialjoin.NewPolygon([]spatialjoin.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}})
	if poly.Area() <= 0 {
		t.Error("NewPolygon broken")
	}

	// Persist & reopen: the store round trip through the facade.
	var buf bytes.Buffer
	if err := spatialjoin.SaveRelation(&buf, r, cfg); err != nil {
		t.Fatalf("SaveRelation: %v", err)
	}
	reopened, err := spatialjoin.OpenRelation(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatalf("OpenRelation: %v", err)
	}
	rePairs, _, err := spatialjoin.Join(ctx, reopened, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rePairs) != len(pairs) {
		t.Fatalf("reopened relation joined %d pairs, want %d", len(rePairs), len(pairs))
	}
	otherCfg := cfg
	otherCfg.BufferPolicy = spatialjoin.PolicyClock
	if _, err := spatialjoin.OpenRelation(bytes.NewReader(buf.Bytes()), otherCfg); !errors.Is(err, spatialjoin.ErrConfigMismatch) {
		t.Errorf("config mismatch not rejected: %v", err)
	}
	storePath := filepath.Join(t.TempDir(), "r.store")
	if err := spatialjoin.SaveRelationFile(storePath, r, cfg); err != nil {
		t.Fatalf("SaveRelationFile: %v", err)
	}
	fromFile, err := spatialjoin.OpenRelationFile(storePath, cfg)
	if err != nil {
		t.Fatalf("OpenRelationFile: %v", err)
	}
	filePairs, _, err := spatialjoin.Join(ctx, fromFile, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(filePairs) != len(pairs) {
		t.Fatalf("file-store relation joined %d pairs, want %d", len(filePairs), len(pairs))
	}

	// Sharded facade: build, join, query, persist, reopen — the sharded
	// response sets match the unsharded ones (the scatter-gather
	// equivalence itself is proven exhaustively in internal/shard).
	shR := spatialjoin.BuildSharded("R", base, 4, cfg)
	shS := spatialjoin.BuildSharded("S", shifted, 4, cfg)
	if shR.Shards() != 4 || shR.Objects() != len(base) {
		t.Fatalf("BuildSharded: %d shards, %d objects", shR.Shards(), shR.Objects())
	}
	shPairs, shSt, err := spatialjoin.JoinSharded(ctx, shR, shS)
	if err != nil {
		t.Fatal(err)
	}
	if len(shPairs) != len(pairs) {
		t.Fatalf("sharded join %d pairs, unsharded %d", len(shPairs), len(pairs))
	}
	if shSt.CandidatePairs != st.CandidatePairs || shSt.ExactHits != st.ExactHits {
		t.Errorf("sharded stats diverge: candidates %d vs %d, exact hits %d vs %d",
			shSt.CandidatePairs, st.CandidatePairs, shSt.ExactHits, st.ExactHits)
	}
	shWin, err := spatialjoin.QuerySharded(ctx, shR,
		spatialjoin.ForWindow(spatialjoin.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.6, MaxY: 0.6}))
	if err != nil {
		t.Fatal(err)
	}
	if len(shWin.IDs) != len(win.IDs) {
		t.Errorf("sharded window query %d objects, unsharded %d", len(shWin.IDs), len(win.IDs))
	}
	wrapped := spatialjoin.ShardedFromRelation(r)
	if wrapped.Shards() != 1 || wrapped.Objects() != len(base) {
		t.Errorf("ShardedFromRelation: %d shards, %d objects", wrapped.Shards(), wrapped.Objects())
	}
	storeDir := filepath.Join(t.TempDir(), "r.shards")
	if err := spatialjoin.SaveShardedStore(storeDir, shR); err != nil {
		t.Fatalf("SaveShardedStore: %v", err)
	}
	if !spatialjoin.IsShardedStore(storeDir) || spatialjoin.IsShardedStore(storePath) {
		t.Error("IsShardedStore misclassifies")
	}
	reShR, err := spatialjoin.OpenShardedStore(storeDir, cfg)
	if err != nil {
		t.Fatalf("OpenShardedStore: %v", err)
	}
	rePairsSh, _, err := spatialjoin.JoinSharded(ctx, reShR, shS)
	if err != nil {
		t.Fatal(err)
	}
	if len(rePairsSh) != len(pairs) {
		t.Fatalf("reopened sharded store joined %d pairs, want %d", len(rePairsSh), len(pairs))
	}
	if _, err := spatialjoin.OpenShardedStore(storeDir, otherCfg); !errors.Is(err, spatialjoin.ErrConfigMismatch) {
		t.Errorf("sharded config mismatch not rejected: %v", err)
	}

	// Engine and kind constants are wired.
	altCfg := cfg
	altCfg.Engine = spatialjoin.EnginePlaneSweep
	altCfg.Filter.Conservative = spatialjoin.RMBR
	altCfg.Filter.Progressive = spatialjoin.MEC
	altCfg.MECPrecision = 5e-3
	r2 := spatialjoin.NewRelation("R", base, altCfg)
	s2 := spatialjoin.NewRelation("S", shifted, altCfg)
	alt, _, err := spatialjoin.Join(ctx, r2, s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(alt) != len(pairs) {
		t.Fatalf("alternative configuration changed the response set: %d vs %d", len(alt), len(pairs))
	}
}

// TestUnifiedAPIErrors pins the error surface of the new entry points.
func TestUnifiedAPIErrors(t *testing.T) {
	base := spatialjoin.GenerateMap(spatialjoin.MapConfig{Cells: 20, TargetVerts: 24, Seed: 5})
	cfgA := spatialjoin.DefaultConfig()
	cfgB := spatialjoin.DefaultConfig()
	cfgB.Engine = spatialjoin.EnginePlaneSweep
	r := spatialjoin.NewRelation("R", base, cfgA)
	s := spatialjoin.NewRelation("S", base, cfgB)
	ctx := context.Background()

	// Mismatched build configurations are rejected without an override…
	if _, _, err := spatialjoin.Join(ctx, r, s); err == nil {
		t.Error("mismatched build configs not rejected")
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
