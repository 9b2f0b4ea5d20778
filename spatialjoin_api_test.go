package spatialjoin_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spatialjoin"
	"spatialjoin/internal/shard"
)

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

	// A store refuses a different configuration and a damaged manifest.
	dir := filepath.Join(t.TempDir(), "s.store")
	if err := spatialjoin.SaveRelation(dir, s); err != nil {
		t.Fatal(err)
	}
	if _, err := spatialjoin.OpenRelation(dir, cfgA); !errors.Is(err, spatialjoin.ErrConfigMismatch) {
		t.Errorf("config mismatch not rejected: %v", err)
	}
	manifest := filepath.Join(dir, shard.ManifestName)
	blob, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, blob[:len(blob)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := spatialjoin.OpenRelation(dir, cfgB); !errors.Is(err, spatialjoin.ErrBadShardManifest) {
		t.Errorf("damaged manifest not rejected: %v", err)
	}
}
