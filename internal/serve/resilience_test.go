package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialjoin/internal/data"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/resilience/fault"
	"spatialjoin/internal/shard"
)

// shardedCatalog builds a catalog of genuinely partitioned relations,
// so tile-level fault injection has independent tiles to hit.
func shardedCatalog(t testing.TB, tiles int) *Catalog {
	t.Helper()
	cfg := multistep.DefaultConfig()
	cfg.BufferBytes = 8192
	rp := data.GenerateMap(data.MapConfig{Cells: 80, TargetVerts: 48, HoleFraction: 0.1, Seed: 211})
	sp := data.StrategyA(rp, 0.45)
	cat := NewCatalog()
	cat.Add("R", shard.Build("R", rp, tiles, cfg))
	cat.Add("S", shard.Build("S", sp, tiles, cfg))
	return cat
}

// armFaults arms an injection spec for the duration of the test. The
// fault harness is process-global, so tests using it must not run in
// parallel.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	if err := fault.Arm(spec); err != nil {
		t.Fatalf("fault.Arm(%q): %v", spec, err)
	}
	t.Cleanup(fault.Disarm)
}

func TestTimeoutParamValidation(t *testing.T) {
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()
	for _, bad := range []string{"abc", "0", "-5", "1.5"} {
		var e errorBody
		get(t, h, "/window?rel=R&minx=0&miny=0&maxx=1&maxy=1&timeout_ms="+bad, http.StatusBadRequest, &e)
		if !strings.Contains(e.Error, "timeout_ms") {
			t.Errorf("timeout_ms=%s: error %q does not name the parameter", bad, e.Error)
		}
	}
}

// TestServerDeadline504: a per-request deadline that fires mid-query
// answers 504 with a structured body and bumps the timed_out counter.
// The query is made slow with latency injection at the tile-query site.
func TestServerDeadline504(t *testing.T) {
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()
	armFaults(t, "tile-query:latency=200ms")

	var e errorBody
	get(t, h, "/window?rel=R&minx=0&miny=0&maxx=1&maxy=1&timeout_ms=50", http.StatusGatewayTimeout, &e)
	if !strings.Contains(e.Error, "deadline") {
		t.Errorf("504 body %q does not explain the deadline", e.Error)
	}

	var st serveStats
	get(t, h, "/stats", http.StatusOK, &st)
	if st.Endpoints["window"].TimedOut != 1 {
		t.Errorf("stats timed_out = %d, want 1", st.Endpoints["window"].TimedOut)
	}

	// Without injected latency the same request beats the same deadline.
	fault.Disarm()
	var win windowResponse
	get(t, h, "/window?rel=R&minx=0&miny=0&maxx=1&maxy=1&timeout_ms=5000", http.StatusOK, &win)
	if len(win.IDs) == 0 {
		t.Error("post-timeout request returned no rows")
	}
}

// TestAdmissionShed429: with one in-flight slot and no queue, a request
// arriving while another executes is shed with 429 and Retry-After, and
// the server admits again once the slot frees.
func TestAdmissionShed429(t *testing.T) {
	cat, _ := testCatalog(t)
	srv := NewServer(cat)
	srv.MaxInFlight = 1
	srv.MaxQueue = 0
	h := srv.Handler()
	armFaults(t, "tile-query:latency=400ms")

	const u = "/window?rel=R&minx=0&miny=0&maxx=1&maxy=1"
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("slot-holding request: status %d: %s", rec.Code, rec.Body)
		}
	}()
	time.Sleep(100 * time.Millisecond) // let the first request occupy the slot

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("concurrent request: status %d, want 429: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	wg.Wait()

	fault.Disarm()
	var win windowResponse
	get(t, h, u, http.StatusOK, &win)

	var st serveStats
	get(t, h, "/stats", http.StatusOK, &st)
	if st.Endpoints["window"].Shed != 1 {
		t.Errorf("stats shed = %d, want 1", st.Endpoints["window"].Shed)
	}
	if st.Admission.Shed != 1 || st.Admission.MaxInFlight != 1 {
		t.Errorf("admission stats = %+v", st.Admission)
	}
}

// TestPanicIsolation: an injected panic inside a tile sub-query is
// contained to a 500 with an incident ID; the process and the handler
// keep serving, and the same request succeeds once the fault is gone.
func TestPanicIsolation(t *testing.T) {
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()
	armFaults(t, "tile-query:panic")

	const u = "/window?rel=R&minx=0&miny=0&maxx=1&maxy=1"
	var e errorBody
	get(t, h, u, http.StatusInternalServerError, &e)
	if e.Incident == "" || !strings.Contains(e.Error, e.Incident) {
		t.Fatalf("500 body %+v does not carry an incident ID", e)
	}

	fault.Disarm()
	var win windowResponse
	get(t, h, u, http.StatusOK, &win)
	if len(win.IDs) == 0 {
		t.Error("server did not recover after the injected panic")
	}
}

// TestCoalescedPanicLoggedOnce: a panic in an execution that another
// request coalesced onto is one incident. Both requests answer 500 with
// its incident ID, and the log holds its record, stack and all, once. An
// injected tile-join latency holds the leader open until the follower has
// joined it; every exact decision then panics.
func TestCoalescedPanicLoggedOnce(t *testing.T) {
	cat, _ := testCatalog(t)
	srv := NewServer(cat)
	h := srv.Handler()
	var logs lockedBuffer
	prev := log.Writer()
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(prev) })
	armFaults(t, "tile-join:latency=300ms,exact:panic")

	const u = "/join?r=R&s=S"
	leaderCh := serveAsync(h, httptest.NewRequest("GET", u, nil))
	waitFor(t, "the leader to reach the injected latency", func() bool { return fired("tile-join") >= 1 })
	followerCh := serveAsync(h, httptest.NewRequest("GET", u, nil))
	waitFor(t, "the follower to coalesce", func() bool { return srv.flight.Coalesced() >= 1 })
	var incidents []string
	for _, rec := range []*httptest.ResponseRecorder{<-leaderCh, <-followerCh} {
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusInternalServerError || e.Incident == "" {
			t.Fatalf("status %d, body %s: want a 500 with an incident ID", rec.Code, rec.Body)
		}
		incidents = append(incidents, e.Incident)
	}
	if incidents[0] != incidents[1] {
		t.Fatalf("leader and follower report incidents %s and %s, want one", incidents[0], incidents[1])
	}
	out := logs.String()
	if n := strings.Count(out, "(incident "+incidents[0]+")"); n != 1 {
		t.Errorf("incident %s logged %d times, want once:\n%s", incidents[0], n, out)
	}
	if !strings.Contains(out, "goroutine ") {
		t.Errorf("the incident's log record carries no stack:\n%s", out)
	}
}

// lockedBuffer is a bytes.Buffer safe for concurrent writers.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestPartialDegradedResponse: with partial=1, a window query over a
// 4-tile relation survives two injected tile failures, answers 200 with
// degraded:true and the failed-tile list, and is never cached — the
// identical follow-up re-executes (and re-degrades) instead of replaying
// a cached degraded body.
func TestPartialDegradedResponse(t *testing.T) {
	cat := shardedCatalog(t, 4)
	h := NewServer(cat).Handler()
	armFaults(t, "tile-query:error@2")

	const u = "/window?rel=R&minx=-1&miny=-1&maxx=2&maxy=2&partial=1"
	var win windowResponse
	get(t, h, u, http.StatusOK, &win)
	if !win.Degraded || len(win.FailedTiles) != 2 {
		t.Fatalf("degraded=%t failedTiles=%v, want degraded with 2 failed tiles", win.Degraded, win.FailedTiles)
	}
	for _, f := range win.FailedTiles {
		if f.Err == "" {
			t.Errorf("failed tile %d without an error string", f.Tile)
		}
	}

	var again windowResponse
	get(t, h, u, http.StatusOK, &again)
	if again.Cached {
		t.Fatal("degraded response was served from cache")
	}
	if !again.Degraded {
		t.Fatal("second partial request did not re-execute against the armed faults")
	}

	var st serveStats
	get(t, h, "/stats", http.StatusOK, &st)
	if st.Endpoints["window"].Degraded != 2 {
		t.Errorf("stats degraded = %d, want 2", st.Endpoints["window"].Degraded)
	}
	if len(st.Faults) == 0 {
		t.Error("stats does not report the armed faults")
	}

	// Strict mode over the same faults fails the whole request.
	var e errorBody
	get(t, h, "/window?rel=R&minx=-1&miny=-1&maxx=2&maxy=2", http.StatusInternalServerError, &e)

	// partial cannot conjure rows when every tile fails.
	fault.Disarm()
	armFaults(t, "tile-query:error")
	get(t, h, u, http.StatusInternalServerError, &e)
}

// TestPartialMatchesStrictRows: a degraded response returns exactly the
// rows of its surviving tiles — re-running without faults returns a
// superset.
func TestPartialMatchesStrictRows(t *testing.T) {
	cat := shardedCatalog(t, 4)
	h := NewServer(cat).Handler()

	const base = "/window?rel=R&minx=-1&miny=-1&maxx=2&maxy=2"
	var full windowResponse
	get(t, h, base, http.StatusOK, &full)

	armFaults(t, "tile-query:error@2")
	var deg windowResponse
	get(t, h, base+"&partial=1", http.StatusOK, &deg)
	if !deg.Degraded {
		t.Fatal("expected a degraded response")
	}
	if len(deg.IDs) == 0 || len(deg.IDs) >= len(full.IDs) {
		t.Fatalf("degraded rows = %d, want a strict non-empty subset of %d", len(deg.IDs), len(full.IDs))
	}
	all := make(map[int32]bool, len(full.IDs))
	for _, id := range full.IDs {
		all[id] = true
	}
	for _, id := range deg.IDs {
		if !all[id] {
			t.Fatalf("degraded response invented row %d", id)
		}
	}
}

func TestJoinRejectsPartial(t *testing.T) {
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()
	var e errorBody
	get(t, h, "/join?r=R&s=S&partial=1", http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "fail closed") {
		t.Errorf("join partial rejection %q does not explain fail-closed", e.Error)
	}
}

func TestReadyzDrain(t *testing.T) {
	cat, _ := testCatalog(t)
	srv := NewServer(cat)
	h := srv.Handler()

	get(t, h, "/readyz", http.StatusOK, nil)
	srv.SetDraining(true)
	get(t, h, "/readyz", http.StatusServiceUnavailable, nil)
	srv.SetDraining(false)
	get(t, h, "/readyz", http.StatusOK, nil)

	// An empty catalog is not ready, but it is alive.
	empty := NewServer(NewCatalog()).Handler()
	get(t, empty, "/readyz", http.StatusServiceUnavailable, nil)
	get(t, empty, "/healthz", http.StatusOK, nil)
}

func TestQuarantinedRelation503(t *testing.T) {
	cat, _ := testCatalog(t)
	cat.Quarantine("bad", "checksum mismatch in page 7")
	h := NewServer(cat).Handler()

	var e errorBody
	get(t, h, "/window?rel=bad&minx=0&miny=0&maxx=1&maxy=1", http.StatusServiceUnavailable, &e)
	if !strings.Contains(e.Error, "quarantine") {
		t.Errorf("quarantined relation error %q does not say quarantined", e.Error)
	}

	var st serveStats
	get(t, h, "/stats", http.StatusOK, &st)
	if st.Quarantined["bad"] != "checksum mismatch in page 7" {
		t.Errorf("stats quarantined = %v", st.Quarantined)
	}

	// An unknown relation is still a plain 404, not a 503.
	get(t, h, "/window?rel=ghost&minx=0&miny=0&maxx=1&maxy=1", http.StatusNotFound, &e)

	// Re-registering the name lifts the quarantine.
	cfg := multistep.DefaultConfig()
	rp := data.GenerateMap(data.MapConfig{Cells: 40, TargetVerts: 32, Seed: 3})
	cat.Add("bad", shard.FromRelation(multistep.NewRelation("bad", rp, cfg)))
	var win windowResponse
	get(t, h, "/window?rel=bad&minx=0&miny=0&maxx=1&maxy=1", http.StatusOK, &win)
}

// TestClientDisconnectWritesNothing: a request whose context is already
// cancelled produces no response body — there is no client to answer,
// and no error status is fabricated.
func TestClientDisconnectWritesNothing(t *testing.T) {
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/window?rel=R&minx=0&miny=0&maxx=1&maxy=1", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Body.Len() != 0 {
		t.Fatalf("cancelled request got a body: %s", rec.Body)
	}
}

// TestErroredResponsesNotCached: a request failed by an injected error
// must not poison the result cache for the faultless retry.
func TestErroredResponsesNotCached(t *testing.T) {
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()
	armFaults(t, "tile-query:error")

	const u = "/window?rel=R&minx=0&miny=0&maxx=1&maxy=1"
	var e errorBody
	get(t, h, u, http.StatusInternalServerError, &e)

	fault.Disarm()
	var win windowResponse
	get(t, h, u, http.StatusOK, &win)
	if win.Cached {
		t.Fatal("first success after an injected failure claims to be cached")
	}
	if len(win.IDs) == 0 {
		t.Fatal("retry after injected failure returned no rows")
	}
}
