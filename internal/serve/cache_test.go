package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"spatialjoin/internal/data"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/resilience/fault"
	"spatialjoin/internal/shard"
)

// getBody fetches a URL from a handler and returns the raw body.
func getBody(t *testing.T, h http.Handler, url string, wantStatus int) string {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s: status %d (want %d): %s", url, rec.Code, wantStatus, rec.Body)
	}
	return rec.Body.String()
}

// TestCachedResponsesByteIdentical is the whole-response cache
// acceptance test: for every endpoint and predicate, a cache-served
// response must be byte-identical to the uncached response except for
// the "cached": true marker line. Every request runs both with plan=off
// and on the default planned path (/nearest never plans); the two
// servers share one catalog, so a plan that depended on earlier runs
// would show here.
func TestCachedResponsesByteIdentical(t *testing.T) {
	cat, _ := testCatalog(t)
	withCache := NewServer(cat).Handler()
	noCacheSrv := NewServer(cat)
	noCacheSrv.CacheBytes = -1
	noCache := noCacheSrv.Handler()

	unplanned := []string{
		"/join?r=R&s=S&plan=off",
		"/join?r=R&s=S&predicate=contains&plan=off",
		"/join?r=R&s=S&epsilon=0.01&plan=off",
		"/join?r=R&s=S&limit=7&plan=off",
		"/window?rel=R&minx=0.2&miny=0.2&maxx=0.45&maxy=0.4&plan=off",
		"/window?rel=R&minx=0.2&miny=0.2&maxx=0.45&maxy=0.4&epsilon=0.03&plan=off",
		"/point?rel=R&x=0.31&y=0.47&plan=off",
	}
	urls := []string{"/nearest?rel=R&x=0.31&y=0.47&k=4"}
	for _, u := range unplanned {
		urls = append(urls, u, strings.TrimSuffix(u, "&plan=off"))
	}
	for _, u := range urls {
		off := getBody(t, noCache, u, http.StatusOK)
		cold := getBody(t, withCache, u, http.StatusOK)
		warm := getBody(t, withCache, u, http.StatusOK)
		if !strings.Contains(warm, `"cached": true`) {
			t.Errorf("GET %s: repeated request not served from cache", u)
		}
		if stripMarkers(cold) != off {
			t.Errorf("GET %s: cold cached-server response differs from uncached server", u)
		}
		if stripMarkers(warm) != off {
			t.Errorf("GET %s: cached response (markers stripped) differs from uncached response:\ncached: %s\nsolo:   %s", u, warm, off)
		}
	}
}

// TestExplainUnchangedByJoins: the planner reads only the relations'
// load-time statistics, so /explain of a request answers the same bytes
// before and after a planned join of a neighbouring request ran.
func TestExplainUnchangedByJoins(t *testing.T) {
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()

	const u = "/explain?r=R&s=S&predicate=within&epsilon=0.01"
	before := getBody(t, h, u, http.StatusOK)
	getBody(t, h, "/join?r=R&s=S&predicate=within&epsilon=0.011", http.StatusOK)
	if after := getBody(t, h, u, http.StatusOK); after != before {
		t.Fatalf("/explain changed after a join:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestCachedShardedJoin runs the cache path over genuinely partitioned
// relations: the second identical join is served from cache with an
// identical body, and the per-tile-pair sub-results populate the same
// shared LRU.
func TestCachedShardedJoin(t *testing.T) {
	cfg := multistep.DefaultConfig()
	cfg.BufferBytes = 8192
	rp := data.GenerateMap(data.MapConfig{Cells: 80, TargetVerts: 48, HoleFraction: 0.1, Seed: 211})
	sp := data.StrategyA(rp, 0.45)
	cat := NewCatalog()
	cat.Add("R", shard.Build("R", rp, 4, cfg))
	cat.Add("S", shard.Build("S", sp, 4, cfg))
	h := NewServer(cat).Handler()

	const u = "/join?r=R&s=S&epsilon=0.01&limit=5&plan=off"
	first := getBody(t, h, u, http.StatusOK)
	second := getBody(t, h, u, http.StatusOK)
	if !strings.Contains(second, `"cached": true`) {
		t.Fatal("repeated sharded join not served from cache")
	}
	if stripMarkers(second) != first {
		t.Fatalf("cached sharded join differs from the cold run:\nfirst:  %s\nsecond: %s", first, second)
	}

	// The limit is not part of the whole-response key, so the limited
	// request is a whole-response hit on the full one's entry; the
	// response must be the canonical sorted prefix.
	var full, limited joinResponse
	get(t, h, "/join?r=R&s=S&plan=off", http.StatusOK, &full)
	get(t, h, "/join?r=R&s=S&limit=2&plan=off", http.StatusOK, &limited)
	if len(limited.Pairs) != 2 || !reflect.DeepEqual(limited.Pairs, full.Pairs[:2]) {
		t.Fatalf("limit variant is not the sorted prefix: %v vs %v", limited.Pairs, full.Pairs[:2])
	}
	if !reflect.DeepEqual(limited.Stats, full.Stats) {
		t.Fatal("limit variant reports different statistics")
	}
}

// TestCacheInvalidationOnSwap: re-registering a name invalidates every
// cached response involving the old entry — the catalog generation in
// the key changes even though the configuration fingerprint may not.
func TestCacheInvalidationOnSwap(t *testing.T) {
	cfg := multistep.DefaultConfig()
	cfg.BufferBytes = 8192
	rp := data.GenerateMap(data.MapConfig{Cells: 80, TargetVerts: 48, HoleFraction: 0.1, Seed: 211})
	sp := data.StrategyA(rp, 0.45)
	cat := NewCatalog()
	cat.Add("R", shard.FromRelation(multistep.NewRelation("R", rp, cfg)))
	cat.Add("S", shard.FromRelation(multistep.NewRelation("S", sp, cfg)))
	h := NewServer(cat).Handler()

	const u = "/join?r=R&s=S&plan=off"
	getBody(t, h, u, http.StatusOK)
	warm := getBody(t, h, u, http.StatusOK)
	if !strings.Contains(warm, `"cached": true`) {
		t.Fatal("repeated join not served from cache")
	}

	// Swap R for a different dataset built under the SAME configuration:
	// the fingerprint is unchanged, so only the generation can (and
	// must) invalidate.
	rp2 := data.GenerateMap(data.MapConfig{Cells: 60, TargetVerts: 40, Seed: 99})
	cat.Add("R", shard.FromRelation(multistep.NewRelation("R", rp2, cfg)))
	swapped := getBody(t, h, u, http.StatusOK)
	if strings.Contains(swapped, `"cached": true`) {
		t.Fatal("stale response served after the relation was swapped")
	}
	if stripMarkers(warm) == swapped {
		t.Fatal("swapped relation returned the old dataset's response")
	}
	// And the swapped pair is itself cacheable again.
	again := getBody(t, h, u, http.StatusOK)
	if !strings.Contains(again, `"cached": true`) || stripMarkers(again) != swapped {
		t.Fatal("swapped relation's responses do not cache")
	}
}

// waitFor polls cond until it holds, failing the test after a generous
// deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// fired reports how often the armed injections at site have fired.
func fired(site string) int64 {
	var n int64
	for _, st := range fault.Stats() {
		if st.Site == site {
			n += st.Fired
		}
	}
	return n
}

// serveAsync serves req on a goroutine of its own and delivers the
// recorded response.
func serveAsync(h http.Handler, req *http.Request) <-chan *httptest.ResponseRecorder {
	out := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		out <- rec
	}()
	return out
}

// TestCoalescedJoinMatchesSolo: a request arriving while an identical
// one is in flight receives the leader's result, marked coalesced and
// otherwise byte-identical. An injected tile-join latency holds the
// leader open so the follower's arrival is deterministic.
func TestCoalescedJoinMatchesSolo(t *testing.T) {
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()
	armFaults(t, "tile-join:latency=300ms")

	const u = "/join?r=R&s=S&plan=off"
	leaderCh := serveAsync(h, httptest.NewRequest("GET", u, nil))
	waitFor(t, "the leader to reach the injected latency", func() bool { return fired("tile-join") >= 1 })
	followerCh := serveAsync(h, httptest.NewRequest("GET", u, nil))
	leader, follower := <-leaderCh, <-followerCh
	if leader.Code != http.StatusOK || follower.Code != http.StatusOK {
		t.Fatalf("statuses %d and %d, want 200:\nleader:   %s\nfollower: %s", leader.Code, follower.Code, leader.Body, follower.Body)
	}
	if !strings.Contains(follower.Body.String(), `"coalesced": true`) {
		t.Fatal("concurrent identical request was not coalesced")
	}
	if stripMarkers(follower.Body.String()) != stripMarkers(leader.Body.String()) {
		t.Fatalf("coalesced response differs from the leader's:\nleader:   %s\nfollower: %s", leader.Body, follower.Body)
	}
}

// TestCancelledLeaderFollowerReruns: a leader whose client goes away
// does not poison the followers coalesced onto it (DESIGN.md §12). The
// follower reruns on its own context, answers 200 marked coalesced, and
// its body is the solo body. The rerun pays the injected latency once —
// it executes again instead of waiting on another flight.
func TestCancelledLeaderFollowerReruns(t *testing.T) {
	cases := []struct{ name, site, url string }{
		{"join", "tile-join", "/join?r=R&s=S&plan=off"},
		{"window", "tile-query", "/window?rel=R&minx=0.2&miny=0.2&maxx=0.45&maxy=0.4&plan=off"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat, _ := testCatalog(t)
			soloSrv := NewServer(cat)
			soloSrv.CacheBytes = -1
			solo := getBody(t, soloSrv.Handler(), tc.url, http.StatusOK)

			srv := NewServer(cat)
			h := srv.Handler()
			armFaults(t, tc.site+":latency=300ms")

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			leader := serveAsync(h, httptest.NewRequest("GET", tc.url, nil).WithContext(ctx))
			waitFor(t, "the leader to reach the injected latency", func() bool { return fired(tc.site) >= 1 })
			follower := serveAsync(h, httptest.NewRequest("GET", tc.url, nil))
			waitFor(t, "the follower to coalesce", func() bool { return srv.flight.Coalesced() >= 1 })
			cancel()
			<-leader

			var rec *httptest.ResponseRecorder
			select {
			case rec = <-follower:
			case <-time.After(10 * time.Second):
				t.Fatal("the follower is still waiting 10 s after its leader was cancelled")
			}
			body := rec.Body.String()
			if rec.Code != http.StatusOK {
				t.Fatalf("follower: status %d, want 200: %s", rec.Code, body)
			}
			if !strings.Contains(body, `"coalesced": true`) {
				t.Error("follower's rerun is not marked coalesced")
			}
			if stripMarkers(body) != solo {
				t.Errorf("follower's rerun differs from the solo response:\nrerun: %s\nsolo:  %s", body, solo)
			}
			if n := fired(tc.site); n != 2 {
				t.Errorf("the injected latency fired %d times, want 2: the leader's run and the follower's one rerun", n)
			}
		})
	}
}

// TestStatsEndpoint: /stats exposes the cache and coalesce counters.
func TestStatsEndpoint(t *testing.T) {
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()

	var st serveStats
	get(t, h, "/stats", http.StatusOK, &st)
	if st.Cache.MaxBytes != DefaultCacheBytes || st.Cache.Entries != 0 || st.Cache.Hits != 0 {
		t.Fatalf("fresh stats = %+v", st)
	}

	const u = "/join?r=R&s=S&limit=3"
	getBody(t, h, u, http.StatusOK)
	get(t, h, "/stats", http.StatusOK, &st)
	if st.Cache.Misses == 0 || st.Cache.Bytes == 0 {
		t.Fatalf("stats after a cold join = %+v", st)
	}
	// One join, one entry: the canonical response, and no tile-pair
	// sub-results beside it.
	if st.Cache.Entries != 1 {
		t.Fatalf("a cold join left %d cache entries, want 1", st.Cache.Entries)
	}
	getBody(t, h, u, http.StatusOK)
	get(t, h, "/stats", http.StatusOK, &st)
	if st.Cache.Hits == 0 {
		t.Fatalf("stats after a warm join = %+v", st)
	}
}

// TestCacheEvictionBudget: a tiny byte budget stays respected under a
// stream of distinct queries — entries are evicted, never over-filled.
func TestCacheEvictionBudget(t *testing.T) {
	cat, _ := testCatalog(t)
	srv := NewServer(cat)
	srv.CacheBytes = 1500
	h := srv.Handler()

	for i := 0; i < 12; i++ {
		x := 0.05 + float64(i)*0.07
		getBody(t, h, "/point?rel=R&x="+trimFloat(x)+"&y=0.5&plan=off", http.StatusOK)
	}
	var st serveStats
	get(t, h, "/stats", http.StatusOK, &st)
	if st.Cache.Bytes > st.Cache.MaxBytes {
		t.Fatalf("cache over budget: %d > %d", st.Cache.Bytes, st.Cache.MaxBytes)
	}
	if st.Cache.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", srv.CacheBytes, st)
	}
}

func trimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmtFloat(v), "0"), ".")
}

// TestWindowLimit: the new limit parameter of /window and /point is
// the sorted prefix of the unlimited response, with the result count
// and truncation marker derived per request.
func TestWindowLimit(t *testing.T) {
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()

	var full, limited windowResponse
	get(t, h, "/window?rel=R&minx=0.2&miny=0.2&maxx=0.45&maxy=0.4&plan=off", http.StatusOK, &full)
	if len(full.IDs) < 4 || full.Truncated {
		t.Fatalf("full window = %+v", full)
	}
	get(t, h, "/window?rel=R&minx=0.2&miny=0.2&maxx=0.45&maxy=0.4&limit=3&plan=off", http.StatusOK, &limited)
	if !limited.Cached {
		t.Fatal("limit variant missed the limit-insensitive cache key")
	}
	if !reflect.DeepEqual(limited.IDs, full.IDs[:3]) || !limited.Truncated {
		t.Fatalf("limited window = %+v", limited)
	}
	if limited.Stats.ResultObjects != 3 || limited.Stats.Candidates != full.Stats.Candidates {
		t.Fatalf("limited window stats = %+v", limited.Stats)
	}
}

// TestTileKeysDifferExactlyWhenStructsDo: the tile-cache key is spelled
// out field by field, so every field must reach the key, fields must not
// run into each other, and equal structs must give equal keys.
func TestTileKeysDifferExactlyWhenStructsDo(t *testing.T) {
	qa := queryTileAdapter{scope: "tq|R|1"}
	qk := []shard.QueryTileKey{
		{},
		{Tile: 1}, {Tile: 12, K: 3}, {Tile: 1, K: 23}, {K: 1}, {Nearest: true}, {Planned: true},
		{MinX: 1}, {MinY: 1}, {MaxX: 1}, {MaxY: 1}, {MinX: 0.1, MinY: 0.2}, {MinX: 0.1, MaxX: 0.2},
		{MinX: 1e-300}, {MinX: 0.30000000000000004}, {MinX: 0.3},
		{CfgFP: 1}, {CfgFP: 0x10}, {Tile: 1, CfgFP: 0}, {Pred: "intersects"}, {Pred: "within(0.5)"},
		{CfgFP: 1, Pred: "|1"}, {CfgFP: 1, Pred: "1"},
	}
	for i, a := range qk {
		for j, b := range qk {
			if (qa.key(a) == qa.key(b)) != (a == b) {
				t.Errorf("query keys %d and %d: %q and %q for %+v and %+v", i, j, qa.key(a), qa.key(b), a, b)
			}
		}
	}
	if other := (queryTileAdapter{scope: "tq|S|1"}); other.key(qk[1]) == qa.key(qk[1]) {
		t.Error("keys of different scopes collide")
	}
}
