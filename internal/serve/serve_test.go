package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialjoin/internal/data"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/shard"
)

// testCatalog builds a small two-relation catalog (R and its shifted
// copy S) under the paper's default configuration.
func testCatalog(t testing.TB) (*Catalog, multistep.Config) {
	t.Helper()
	cfg := multistep.DefaultConfig()
	cfg.BufferBytes = 8192 // small buffer: non-trivial per-query accounting
	rp := data.GenerateMap(data.MapConfig{Cells: 80, TargetVerts: 48, HoleFraction: 0.1, Seed: 211})
	sp := data.StrategyA(rp, 0.45)
	cat := NewCatalog()
	cat.Add("R", shard.FromRelation(multistep.NewRelation("R", rp, cfg)))
	cat.Add("S", shard.FromRelation(multistep.NewRelation("S", sp, cfg)))
	return cat, cfg
}

func get(t *testing.T, h http.Handler, url string, wantStatus int, out any) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s: status %d (want %d): %s", url, rec.Code, wantStatus, rec.Body)
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
	}
}

func TestEndpoints(t *testing.T) {
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()

	var health struct {
		OK        bool `json:"ok"`
		Relations int  `json:"relations"`
	}
	get(t, h, "/healthz", http.StatusOK, &health)
	if !health.OK || health.Relations != 2 {
		t.Errorf("healthz = %+v", health)
	}

	var rels []relationInfo
	get(t, h, "/relations", http.StatusOK, &rels)
	if len(rels) != 2 || rels[0].Name != "R" || rels[1].Name != "S" || rels[0].Objects == 0 {
		t.Errorf("relations = %+v", rels)
	}
	// The catalog listing is the introspection surface: fingerprint,
	// shard count, relation MBR and per-tile bounds.
	for _, ri := range rels {
		if len(ri.Fingerprint) != 16 {
			t.Errorf("relation %q: fingerprint %q, want 16 hex digits", ri.Name, ri.Fingerprint)
		}
		if ri.Shards != 1 || len(ri.Tiles) != 1 {
			t.Errorf("relation %q: %d shards, %d tiles, want 1/1 for a monolithic entry", ri.Name, ri.Shards, len(ri.Tiles))
		}
		if ri.MBR.IsEmpty() || !ri.MBR.Contains(ri.Tiles[0].MBR) {
			t.Errorf("relation %q: MBR %+v does not cover tile MBR %+v", ri.Name, ri.MBR, ri.Tiles[0].MBR)
		}
		if ri.Tiles[0].Objects != ri.Objects {
			t.Errorf("relation %q: tile holds %d of %d objects", ri.Name, ri.Tiles[0].Objects, ri.Objects)
		}
	}
	if rels[0].Fingerprint != rels[1].Fingerprint {
		t.Errorf("same-config relations report different fingerprints: %q vs %q",
			rels[0].Fingerprint, rels[1].Fingerprint)
	}

	var win windowResponse
	get(t, h, "/window?rel=R&minx=0.2&miny=0.2&maxx=0.45&maxy=0.4", http.StatusOK, &win)
	if len(win.IDs) == 0 || win.Stats.Candidates == 0 {
		t.Errorf("window = %+v", win)
	}

	var pt windowResponse
	get(t, h, "/point?rel=R&x=0.31&y=0.47", http.StatusOK, &pt)
	if len(pt.IDs) != 1 || pt.IDs[0] != 47 {
		t.Errorf("point = %+v", pt)
	}

	var nn nearestResponse
	get(t, h, "/nearest?rel=R&x=0.31&y=0.47&k=3", http.StatusOK, &nn)
	if len(nn.Neighbors) != 3 || nn.Neighbors[0].ID != 47 || nn.Neighbors[0].Dist != 0 {
		t.Errorf("nearest = %+v", nn)
	}
	// The best-first search touches at least the root; misses depend on
	// which pages the session snapshot holds resident.
	if nn.Stats.PageTouches <= 0 || nn.Stats.PageAccesses < 0 {
		t.Errorf("nearest must report its per-query page accounting, got %+v", nn.Stats)
	}

	var jn joinResponse
	get(t, h, "/join?r=R&s=S", http.StatusOK, &jn)
	if jn.Stats.ResultPairs == 0 || int64(len(jn.Pairs)) != jn.Stats.ResultPairs || jn.Truncated {
		t.Errorf("join = %d pairs, stats %+v", len(jn.Pairs), jn.Stats)
	}

	var trunc joinResponse
	get(t, h, "/join?r=R&s=S&limit=5", http.StatusOK, &trunc)
	if len(trunc.Pairs) != 5 || !trunc.Truncated || trunc.Stats.ResultPairs != jn.Stats.ResultPairs {
		t.Errorf("limited join = %d pairs truncated=%v", len(trunc.Pairs), trunc.Truncated)
	}
	// A truncated response returns the (A, B)-smallest pairs — the
	// deterministic prefix of the sorted response set, independent of
	// worker scheduling.
	if !reflect.DeepEqual(trunc.Pairs, jn.Pairs[:5]) {
		t.Errorf("truncated join is not the sorted prefix: %v vs %v", trunc.Pairs, jn.Pairs[:5])
	}

	// An absurd workers parameter is clamped, not obeyed.
	var wj joinResponse
	get(t, h, "/join?r=R&s=S&limit=5&workers=1000000000", http.StatusOK, &wj)
	if !reflect.DeepEqual(wj.Pairs, trunc.Pairs) || wj.Stats.ResultPairs != jn.Stats.ResultPairs {
		t.Errorf("clamped-workers join diverged")
	}
}

func TestEndpointErrors(t *testing.T) {
	cat, cfg := testCatalog(t)
	// A third relation under a different configuration: joins against it
	// must be rejected by fingerprint.
	other := cfg
	other.PageSize = 2048
	rp := data.GenerateMap(data.MapConfig{Cells: 20, TargetVerts: 24, Seed: 7})
	cat.Add("T", shard.FromRelation(multistep.NewRelation("T", rp, other)))
	h := NewServer(cat).Handler()

	get(t, h, "/window?rel=missing&minx=0&miny=0&maxx=1&maxy=1", http.StatusNotFound, nil)
	get(t, h, "/window?rel=R&minx=0&miny=0&maxx=1", http.StatusBadRequest, nil)
	get(t, h, "/window?rel=R&minx=zero&miny=0&maxx=1&maxy=1", http.StatusBadRequest, nil)
	get(t, h, "/point?rel=R&x=0.5", http.StatusBadRequest, nil)
	get(t, h, "/nearest?rel=R&x=0.5&y=0.5&k=0", http.StatusBadRequest, nil)
	get(t, h, "/join?r=R", http.StatusBadRequest, nil)

	// A fingerprint-mismatched pair conflicts, and the body names both
	// fingerprints so the caller can see which side to rebuild.
	var conflict errorBody
	get(t, h, "/join?r=R&s=T", http.StatusConflict, &conflict)
	if conflict.Error == "" {
		t.Error("conflict body has no error message")
	}
	if len(conflict.RFingerprint) != 16 || len(conflict.SFingerprint) != 16 {
		t.Errorf("conflict fingerprints = %q / %q, want 16 hex digits each",
			conflict.RFingerprint, conflict.SFingerprint)
	}
	if conflict.RFingerprint == conflict.SFingerprint {
		t.Error("conflicting relations report the same fingerprint")
	}
	// Matching pairs never carry the conflict fingerprints.
	var okBody map[string]any
	get(t, h, "/join?r=R&s=S&limit=1", http.StatusOK, &okBody)
	if _, present := okBody["rFingerprint"]; present {
		t.Error("successful join leaked the conflict fingerprint fields")
	}
}

// TestNonFiniteParametersRejected: strconv.ParseFloat accepts NaN and
// Inf spellings, and NaN passes every range check (NaN < 0 is false), so
// each float parameter of each endpoint must refuse them with a 400
// before they reach a kernel. 1e400 overflows to +Inf with a range error.
func TestNonFiniteParametersRejected(t *testing.T) {
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()
	for _, bad := range []string{"NaN", "nan", "Inf", "%2BInf", "-Inf", "infinity", "1e400", "-1e400"} {
		for _, path := range []string{
			"/join?r=R&s=S&predicate=within&epsilon=" + bad,
			"/join?r=R&s=S&epsilon=" + bad,
			"/explain?r=R&s=S&epsilon=" + bad,
			"/window?rel=R&minx=0&miny=0&maxx=1&maxy=1&epsilon=" + bad,
			"/window?rel=R&minx=" + bad + "&miny=0&maxx=1&maxy=1",
			"/window?rel=R&minx=0&miny=" + bad + "&maxx=1&maxy=1",
			"/window?rel=R&minx=0&miny=0&maxx=" + bad + "&maxy=1",
			"/window?rel=R&minx=0&miny=0&maxx=1&maxy=" + bad,
			"/point?rel=R&x=" + bad + "&y=0.5",
			"/point?rel=R&x=0.5&y=" + bad,
			"/point?rel=R&x=0.5&y=0.5&epsilon=" + bad,
			"/nearest?rel=R&x=" + bad + "&y=0.5",
			"/nearest?rel=R&x=0.5&y=" + bad,
		} {
			get(t, h, path, http.StatusBadRequest, nil)
		}
	}
	// The finite neighbours of the rejected values still work.
	get(t, h, "/join?r=R&s=S&epsilon=0&limit=1", http.StatusOK, nil)
	get(t, h, "/point?rel=R&x=1e300&y=-1e300", http.StatusOK, nil)
}

// TestCatalogLoadFile: a persisted relation is a directory. A
// single-file SJRL store is refused, whole or cut, with a reason that
// names the rebuild; a missing path fails too. Each failure quarantines
// its name.
func TestCatalogLoadFile(t *testing.T) {
	cfg := multistep.DefaultConfig()
	rp := data.GenerateMap(data.MapConfig{Cells: 30, TargetVerts: 32, Seed: 77})
	path := filepath.Join(t.TempDir(), "rel.store")
	if err := multistep.SaveRelationFile(path, multistep.NewRelation("stored", rp, cfg), cfg); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.store")
	if err := os.WriteFile(cut, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	for name, p := range map[string]string{"file": path, "cut": cut, "absent": filepath.Join(t.TempDir(), "absent.store")} {
		if err := cat.LoadDir(name, p, cfg); err == nil {
			t.Fatalf("loading the %s store must fail", name)
		}
		reason, q := cat.Quarantined(name)
		if !q {
			t.Errorf("%s store: name not quarantined", name)
		}
		if name != "absent" && !strings.Contains(reason, "cmd/datagen") {
			t.Errorf("%s store: reason %q does not name cmd/datagen", name, reason)
		}
	}
}

// TestServeShardedStore is the end-to-end sharded path: a 4-shard store
// saved to disk, reopened through the manifest (Catalog.LoadDir — the
// same route cmd/spatialjoinserve takes for a store directory), and
// served; every endpoint must answer exactly as the monolithic catalog
// does.
func TestServeShardedStore(t *testing.T) {
	cfg := multistep.DefaultConfig()
	cfg.BufferBytes = 8192
	rp := data.GenerateMap(data.MapConfig{Cells: 80, TargetVerts: 48, HoleFraction: 0.1, Seed: 211})
	sp := data.StrategyA(rp, 0.45)

	dir := t.TempDir()
	rDir, sDir := filepath.Join(dir, "R"), filepath.Join(dir, "S")
	if err := shard.Save(rDir, shard.Build("R", rp, 4, cfg)); err != nil {
		t.Fatal(err)
	}
	if err := shard.Save(sDir, shard.Build("S", sp, 4, cfg)); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	if err := cat.LoadDir("R", rDir, cfg); err != nil {
		t.Fatal(err)
	}
	if err := cat.LoadDir("S", sDir, cfg); err != nil {
		t.Fatal(err)
	}
	sharded := NewServer(cat).Handler()
	mono, _ := testCatalog(t)
	monoH := NewServer(mono).Handler()

	var rels []relationInfo
	get(t, sharded, "/relations", http.StatusOK, &rels)
	if len(rels) != 2 || rels[0].Shards != 4 || len(rels[0].Tiles) != 4 {
		t.Fatalf("sharded listing = %+v", rels)
	}

	// Joins and queries agree with the monolithic catalog pair for pair
	// and ID for ID (the stats differ in page accounting only, so the
	// comparison is on results).
	var jm, js joinResponse
	get(t, monoH, "/join?r=R&s=S", http.StatusOK, &jm)
	get(t, sharded, "/join?r=R&s=S", http.StatusOK, &js)
	if jm.Stats.ResultPairs == 0 || !reflect.DeepEqual(js.Pairs, jm.Pairs) {
		t.Errorf("sharded /join returned %d pairs, monolithic %d", len(js.Pairs), len(jm.Pairs))
	}
	var wm, ws windowResponse
	get(t, monoH, "/window?rel=R&minx=0.2&miny=0.2&maxx=0.45&maxy=0.4", http.StatusOK, &wm)
	get(t, sharded, "/window?rel=R&minx=0.2&miny=0.2&maxx=0.45&maxy=0.4", http.StatusOK, &ws)
	if len(wm.IDs) == 0 || !reflect.DeepEqual(ws.IDs, wm.IDs) {
		t.Errorf("sharded /window IDs %v, monolithic %v", ws.IDs, wm.IDs)
	}
	var nm, ns nearestResponse
	get(t, monoH, "/nearest?rel=R&x=0.31&y=0.47&k=3", http.StatusOK, &nm)
	get(t, sharded, "/nearest?rel=R&x=0.31&y=0.47&k=3", http.StatusOK, &ns)
	if !reflect.DeepEqual(ns.Neighbors, nm.Neighbors) {
		t.Errorf("sharded /nearest %v, monolithic %v", ns.Neighbors, nm.Neighbors)
	}
}

// stripMarkers removes the multi-query execution marker lines
// ("cached": true / "coalesced": true) from a JSON response body. The
// markers lead their structs, so the remainder is exactly the solo-run
// body — the byte-identity contract of DESIGN.md §12.
func stripMarkers(body string) string {
	lines := strings.Split(body, "\n")
	out := lines[:0]
	for _, ln := range lines {
		if strings.Contains(ln, `"cached": true`) || strings.Contains(ln, `"coalesced": true`) {
			continue
		}
		out = append(out, ln)
	}
	return strings.Join(out, "\n")
}

// TestConcurrentRequests hammers one server with parallel mixed queries
// and checks that every response equals its solo-run baseline — the
// HTTP-level proof of per-query isolation (run it under -race).
// Responses may legitimately be served from the cache or a coalesced
// execution; after stripping those marker lines the bodies must be
// byte-identical.
func TestConcurrentRequests(t *testing.T) {
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()

	urls := []string{
		"/window?rel=R&minx=0.2&miny=0.2&maxx=0.45&maxy=0.4",
		"/window?rel=S&minx=0.5&miny=0.1&maxx=0.8&maxy=0.6",
		"/point?rel=R&x=0.31&y=0.47",
		"/nearest?rel=R&x=0.7&y=0.2&k=4",
		"/join?r=R&s=S&limit=100",
	}
	baseline := make([]string, len(urls))
	for i, u := range urls {
		req := httptest.NewRequest("GET", u, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("baseline GET %s: %d", u, rec.Code)
		}
		baseline[i] = rec.Body.String()
	}

	const goroutines = 9
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				i := (g + round) % len(urls)
				req := httptest.NewRequest("GET", urls[i], nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("goroutine %d: GET %s: %d", g, urls[i], rec.Code)
					return
				}
				if stripMarkers(rec.Body.String()) != stripMarkers(baseline[i]) {
					t.Errorf("goroutine %d: GET %s diverged from the solo-run response", g, urls[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServerOverRealConnections exercises the full network stack once:
// an httptest.Server with keep-alives and true parallel clients.
func TestServerOverRealConnections(t *testing.T) {
	cat, _ := testCatalog(t)
	ts := httptest.NewServer(NewServer(cat).Handler())
	defer ts.Close()

	var want windowResponse
	res, err := http.Get(ts.URL + "/window?rel=R&minx=0.2&miny=0.2&maxx=0.45&maxy=0.4")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(res.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := http.Get(ts.URL + "/window?rel=R&minx=0.2&miny=0.2&maxx=0.45&maxy=0.4")
			if err != nil {
				t.Error(err)
				return
			}
			defer res.Body.Close()
			var got windowResponse
			if err := json.NewDecoder(res.Body).Decode(&got); err != nil {
				t.Error(err)
				return
			}
			got.Cached, got.Coalesced = false, false
			if !reflect.DeepEqual(got, want) {
				t.Error("concurrent network response diverged from baseline")
			}
		}()
	}
	wg.Wait()
}

// BenchmarkConcurrentQueries measures the serving throughput (QPS) of
// one opened relation under parallel load — the "serve many" payoff of
// the per-query access contexts. Run with -cpu to scale the client
// parallelism; qps is reported as a custom metric.
func BenchmarkConcurrentQueries(b *testing.B) {
	cat, _ := testCatalog(b)
	h := NewServer(cat).Handler()
	// Pre-warm the lazy exact representations so the benchmark measures
	// steady-state serving, not one-time builds.
	warm := httptest.NewRequest("GET", "/join?r=R&s=S&limit=1", nil)
	h.ServeHTTP(httptest.NewRecorder(), warm)

	for _, bench := range []struct{ name, url string }{
		{"window", "/window?rel=R&minx=0.2&miny=0.2&maxx=0.45&maxy=0.4"},
		{"point", "/point?rel=R&x=0.31&y=0.47"},
		{"nearest", "/nearest?rel=R&x=0.31&y=0.47&k=5"},
		{"join", "/join?r=R&s=S&limit=0"},
	} {
		b.Run(bench.name, func(b *testing.B) {
			start := time.Now()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					req := httptest.NewRequest("GET", bench.url, nil)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						b.Fatalf("status %d", rec.Code)
					}
				}
			})
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed, "qps")
			}
		})
	}
}

// Example output shape of the window endpoint, for the README.
func ExampleServer() {
	cat := NewCatalog()
	cfg := multistep.DefaultConfig()
	rp := data.GenerateMap(data.MapConfig{Cells: 12, TargetVerts: 16, Seed: 3})
	cat.Add("demo", shard.Build("demo", rp, 1, cfg))
	h := NewServer(cat).Handler()
	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	fmt.Print(rec.Body.String())
	// Output:
	// {
	//   "ok": true,
	//   "relations": 1
	// }
}

// TestJoinPredicates exercises the /join predicate and epsilon
// parameters: the contains join, the within-distance join (a superset of
// the intersection join, degenerating to it at ε = 0), and parameter
// validation.
func TestJoinPredicates(t *testing.T) {
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()

	var inter joinResponse
	get(t, h, "/join?r=R&s=S", http.StatusOK, &inter)
	if inter.Predicate != "intersects" || inter.Stats.ResultPairs == 0 {
		t.Fatalf("intersects join = %+v", inter.Stats)
	}

	var zero joinResponse
	get(t, h, "/join?r=R&s=S&predicate=within&epsilon=0", http.StatusOK, &zero)
	if zero.Stats.ResultPairs != inter.Stats.ResultPairs {
		t.Errorf("within(0) found %d pairs, intersects %d", zero.Stats.ResultPairs, inter.Stats.ResultPairs)
	}

	var within joinResponse
	get(t, h, "/join?r=R&s=S&epsilon=0.02", http.StatusOK, &within) // epsilon implies within
	if within.Predicate != "within(0.02)" {
		t.Errorf("predicate echoed as %q", within.Predicate)
	}
	if within.Stats.ResultPairs < inter.Stats.ResultPairs {
		t.Errorf("ε-join found %d pairs, fewer than the %d intersecting",
			within.Stats.ResultPairs, inter.Stats.ResultPairs)
	}

	// The inclusion self-join: every region contains itself, so the
	// response holds at least the diagonal.
	var contains joinResponse
	get(t, h, "/join?r=R&s=R&predicate=contains", http.StatusOK, &contains)
	if contains.Predicate != "contains" || contains.Stats.ResultPairs < 80 {
		t.Errorf("contains self-join = %+v", contains.Stats)
	}

	get(t, h, "/join?r=R&s=S&predicate=frobnicate", http.StatusBadRequest, nil)
	get(t, h, "/join?r=R&s=S&epsilon=-1", http.StatusBadRequest, nil)
	get(t, h, "/join?r=R&s=S&epsilon=nope", http.StatusBadRequest, nil)
	// An explicit intersects predicate with an epsilon is promoted to the
	// ε-join (matching cmd/spatialjoin), never silently dropped…
	var promoted joinResponse
	get(t, h, "/join?r=R&s=S&predicate=intersects&epsilon=0.02", http.StatusOK, &promoted)
	if promoted.Predicate != "within(0.02)" || promoted.Stats.ResultPairs != within.Stats.ResultPairs {
		t.Errorf("intersects+epsilon promoted to %q (%d pairs), want within(0.02) (%d pairs)",
			promoted.Predicate, promoted.Stats.ResultPairs, within.Stats.ResultPairs)
	}
	// …while an epsilon on a predicate that takes none is rejected.
	get(t, h, "/join?r=R&s=S&predicate=contains&epsilon=0.02", http.StatusBadRequest, nil)

	// ε-range queries on the single-relation endpoints.
	var pt windowResponse
	get(t, h, "/point?rel=R&x=0.31&y=0.47&epsilon=0.05", http.StatusOK, &pt)
	var plain windowResponse
	get(t, h, "/point?rel=R&x=0.31&y=0.47", http.StatusOK, &plain)
	if len(pt.IDs) < len(plain.IDs) {
		t.Errorf("ε-range point query found %d, plain point query %d", len(pt.IDs), len(plain.IDs))
	}
}

// TestCancelledRequestReleasesWorkers is the serving-layer cancellation
// acceptance test: a /join request whose client disconnects mid-join
// must stop its pipeline workers (no goroutine leak — run under -race in
// CI) instead of running the join to completion.
func TestCancelledRequestReleasesWorkers(t *testing.T) {
	// A heavier workload than testCatalog so the join reliably outlives
	// the cancellation point.
	cfg := multistep.DefaultConfig()
	cfg.UseFilter = false
	cfg.Engine = multistep.EngineQuadratic
	rp := data.GenerateMap(data.MapConfig{Cells: 600, TargetVerts: 56, HoleFraction: 0.1, Seed: 613})
	sp := data.StrategyA(rp, 0.45)
	cat := NewCatalog()
	cat.Add("R", shard.FromRelation(multistep.NewRelation("R", rp, cfg)))
	cat.Add("S", shard.FromRelation(multistep.NewRelation("S", sp, cfg)))
	srv := httptest.NewServer(NewServer(cat).Handler())
	defer srv.Close()

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/join?r=R&s=S&workers=4", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the join start
	start := time.Now()
	cancel()
	if err := <-done; err == nil {
		t.Log("request finished before the cancellation point; leak check still applies")
	}

	// All request-scoped goroutines — the HTTP handler and the join
	// workers — must drain promptly.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after client disconnect: %d, baseline %d (waited %v)",
				runtime.NumGoroutine(), before, time.Since(start))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHitPathAllocs bounds the allocations of a cache hit on each query
// endpoint, sent through Handler() with a fresh httptest.ResponseRecorder
// (whose own allocations are counted too). A hit parses the query string
// once, builds its key from the entry's scope and encodes through the
// pooled encoder; re-parsing the query in one parameter reader, or an
// encoder built per response, shows as several more allocations.
func TestHitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; the response encoder is pooled")
	}
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()
	for _, tc := range []struct {
		url string
		max float64
	}{
		{"/point?rel=R&x=0.31&y=0.47&epsilon=0.01", 21},
		{"/window?rel=R&minx=0.2&miny=0.2&maxx=0.45&maxy=0.4&limit=100", 22},
		{"/nearest?rel=R&x=0.31&y=0.47&k=4", 20},
		{"/join?r=R&s=S&limit=10", 19},
	} {
		getBody(t, h, tc.url, http.StatusOK) // the miss that fills the cache
		req := httptest.NewRequest("GET", tc.url, nil)
		cached := true
		n := testing.AllocsPerRun(100, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			cached = cached && rec.Code == http.StatusOK && bytes.HasPrefix(rec.Body.Bytes(), []byte("{\n  \"cached\": true,"))
		})
		if !cached {
			t.Fatalf("GET %s: a repeat was not answered from the cache", tc.url)
		}
		t.Logf("GET %s: %.0f allocations per cache hit (bound %.0f)", tc.url, n, tc.max)
		if n > tc.max {
			t.Errorf("GET %s: %.0f allocations per cache hit, want ≤ %.0f", tc.url, n, tc.max)
		}
	}
}

// TestEncodeFailureAnswers500: a value encoding/json rejects answers 500
// with an errorBody, not the intended status with an empty body, and the
// pooled encoder serves the next response intact.
func TestEncodeFailureAnswers500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"ratio": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %q", rec.Code, rec.Body)
	}
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "unsupported value") {
		t.Fatalf("body %q: want an errorBody naming the encode error (%v)", rec.Body, err)
	}
	for range 4 {
		rec = httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, map[string]int{"a": 1})
		if rec.Code != http.StatusOK || rec.Body.String() != "{\n  \"a\": 1\n}\n" {
			t.Fatalf("after a failed encode: status %d, body %q", rec.Code, rec.Body)
		}
	}
}
