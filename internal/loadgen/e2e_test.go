package loadgen

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/serve"
)

// startServer builds the two relations of the scale factor with the
// streaming store builder and serves them from a live test server —
// the full production path: StreamMap → BuildStore → shard.Open →
// serve.Handler.
func startServer(t *testing.T, spec Spec, cacheBytes int64) *httptest.Server {
	t.Helper()
	cfg := multistep.DefaultConfig()
	dir := t.TempDir()
	cat := serve.NewCatalog()
	for _, side := range []string{"R", "S"} {
		name := spec.RelationName(side)
		store := filepath.Join(dir, name+".store")
		mc, err := spec.MapConfig(side)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := BuildStore(store, name, mc, 3, cfg); err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		if err := cat.LoadDir(name, store, cfg); err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
	}
	srv := serve.NewServer(cat)
	srv.CacheBytes = cacheBytes
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestFlightCalibration runs the full flight against a live server and
// checks the calibrated cardinalities against independent ground truth:
// brute-force geometry for window and point, the exact k for nearest,
// and the limit for the truncated high-selectivity window.
func TestFlightCalibration(t *testing.T) {
	spec, err := For(0.01)
	if err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, spec, 0) // cache off: every fetch is a real execution
	f := NewFlight(spec)
	if len(f.Queries) != 12 {
		t.Fatalf("flight has %d queries, want 12", len(f.Queries))
	}
	ctx := context.Background()
	if err := f.Calibrate(ctx, ts.Client(), ts.URL); err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Query{}
	for _, q := range f.Queries {
		if q.Expected < 0 {
			t.Errorf("%s: not calibrated", q.Name)
		}
		byName[q.Name] = q
	}

	if got := byName["nearest_small"].Expected; got != 4 {
		t.Errorf("nearest_small: %d neighbors, want exactly k=4", got)
	}
	if got := byName["nearest_large"].Expected; got != 32 {
		t.Errorf("nearest_large: %d neighbors, want exactly k=32", got)
	}
	if got := byName["window_high"].Expected; got != 100 {
		t.Errorf("window_high: %d ids, want the limit-truncated 100", got)
	}
	if got := byName["join_intersects"].Expected; got <= 0 {
		t.Errorf("join_intersects: %d pairs, want some", got)
	}
	if lo, hi := byName["join_within_low"].Expected, byName["join_within_high"].Expected; lo > hi {
		t.Errorf("join_within: epsilon %v pairs > epsilon %v pairs (%d > %d)",
			0.1, 1.0, lo, hi)
	}

	// Independent ground truth: regenerate relation R and brute-force the
	// epsilon-free window and point queries with raw geometry predicates.
	mc, err := spec.MapConfig("R")
	if err != nil {
		t.Fatal(err)
	}
	var polys []*geom.Polygon
	if _, err := data.StreamMap(mc, func(_ int32, p *geom.Polygon) error {
		polys = append(polys, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cell := spec.Extent / float64(intSqrt(spec.Objects))
	c := 0.5 * spec.Extent

	w := geom.Rect{MinX: c - 1.5*cell, MinY: c - 1.5*cell, MaxX: c + 1.5*cell, MaxY: c + 1.5*cell}
	corners := w.Corners()
	rectPoly := geom.NewPolygon(corners[:])
	var wantWindow int64
	for _, p := range polys {
		if p.Intersects(rectPoly) {
			wantWindow++
		}
	}
	if got := byName["window_low"].Expected; got != wantWindow {
		t.Errorf("window_low: server found %d, brute force %d", got, wantWindow)
	}

	pt := geom.Point{X: c, Y: c}
	var wantPoint int64
	for _, p := range polys {
		if p.Bounds().ContainsPoint(pt) && p.ContainsPoint(pt) {
			wantPoint++
		}
	}
	if got := byName["point_center"].Expected; got != wantPoint {
		t.Errorf("point_center: server found %d, brute force %d", got, wantPoint)
	}

	// Re-fetch after calibration: cardinalities must be stable, and a
	// deliberately wrong expectation must be caught.
	for _, q := range f.Queries {
		if _, err := Fetch(ctx, ts.Client(), ts.URL, q); err != nil {
			t.Errorf("%s: post-calibration fetch: %v", q.Name, err)
		}
	}
	bad := *byName["window_low"]
	bad.Expected++
	if _, err := Fetch(ctx, ts.Client(), ts.URL, &bad); err == nil {
		t.Error("cardinality mismatch went undetected")
	}
}

// TestFlightCheckPasses checks a calibrated flight with Flight.Check
// from four concurrent clients, three passes each, against a live cached
// server: every answer must arrive and match its calibrated cardinality,
// and the server's /stats must then report a non-zero process RSS.
func TestFlightCheckPasses(t *testing.T) {
	spec, err := For(0.01)
	if err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, spec, serve.DefaultCacheBytes)
	f := NewFlight(spec)
	ctx := context.Background()
	if err := f.Calibrate(ctx, ts.Client(), ts.URL); err != nil {
		t.Fatal(err)
	}
	if err := f.Check(ctx, ts.Client(), ts.URL, 4); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Process struct {
			RSSBytes int64 `json:"rss_bytes"`
		} `json:"process"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Process.RSSBytes <= 0 {
		t.Errorf("/stats process.rss_bytes = %d, want > 0", st.Process.RSSBytes)
	}
}

// TestFlightCheck checks that the flight check refuses an uncalibrated
// flight and a check with no workers, and fails naming the query whose
// calibrated cardinality is wrong.
func TestFlightCheck(t *testing.T) {
	spec, err := For(0.01)
	if err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, spec, serve.DefaultCacheBytes)
	f := NewFlight(spec)
	ctx := context.Background()
	if err := f.Check(ctx, ts.Client(), ts.URL, 4); err == nil {
		t.Error("check of an uncalibrated flight passed")
	}
	if err := f.Calibrate(ctx, ts.Client(), ts.URL); err != nil {
		t.Fatal(err)
	}
	if err := f.Check(ctx, ts.Client(), ts.URL, 0); err == nil {
		t.Error("check with no workers passed")
	}
	q := f.Queries[len(f.Queries)-1]
	q.Expected++
	err = f.Check(ctx, ts.Client(), ts.URL, 4)
	if err == nil || !strings.Contains(err.Error(), q.Name) {
		t.Errorf("check with %s's cardinality bumped: err = %v, want a mismatch on %s", q.Name, err, q.Name)
	}
}
