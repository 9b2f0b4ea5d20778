package resilience_test

// The chaos suite: mixed query load against a live serve.Handler with
// the fault harness armed at every site at once. It proves the three
// resilience contracts end to end, under the race detector:
//
//  1. the process survives — injected panics, errors and latency never
//     take the server down;
//  2. responses that dodge injection are byte-identical to solo runs —
//     faults never leak into results that claim to be complete;
//  3. every shed, timed-out, degraded or failed response is well-formed
//     JSON with the documented shape.
//
// The test lives outside package serve so it exercises the public
// surface the way cmd/spatialjoinserve wires it.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialjoin/internal/data"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/resilience/fault"
	"spatialjoin/internal/serve"
	"spatialjoin/internal/shard"
)

// chaosServer builds a 4-tile two-relation catalog behind a fully
// configured resilience envelope.
func chaosServer(t testing.TB) *httptest.Server {
	t.Helper()
	cfg := multistep.DefaultConfig()
	cfg.BufferBytes = 8192
	rp := data.GenerateMap(data.MapConfig{Cells: 80, TargetVerts: 48, HoleFraction: 0.1, Seed: 211})
	sp := data.StrategyA(rp, 0.45)
	cat := serve.NewCatalog()
	cat.Add("R", shard.Build("R", rp, 4, cfg))
	cat.Add("S", shard.Build("S", sp, 4, cfg))
	srv := serve.NewServer(cat)
	// Cache off: every storm request must walk the full pipeline past
	// the injection sites instead of replaying the baseline pass.
	srv.CacheBytes = 0
	srv.MaxInFlight = 4
	srv.MaxQueue = 2
	srv.QueueWait = 50 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// chaosRequest is one request shape of the storm: the URL fired under
// faults and the strict URL whose solo body a clean 200 must match.
type chaosRequest struct {
	url  string // fired during the storm (may carry partial/timeout_ms)
	base string // canonical strict URL for the byte-identity check
}

func chaosRequests() []chaosRequest {
	strict := []string{
		"/window?rel=R&minx=-1&miny=-1&maxx=2&maxy=2",
		"/window?rel=R&minx=0.2&miny=0.2&maxx=0.45&maxy=0.4",
		"/window?rel=S&minx=0.1&miny=0.5&maxx=0.6&maxy=0.9",
		"/point?rel=R&x=0.31&y=0.47",
		"/nearest?rel=R&x=0.31&y=0.47&k=3",
		"/join?r=R&s=S&limit=50",
	}
	var reqs []chaosRequest
	for _, u := range strict {
		reqs = append(reqs, chaosRequest{url: u, base: u})
		if !strings.HasPrefix(u, "/join") {
			// Degradable variants; a partial response that lost no tiles
			// is byte-identical to the strict run.
			reqs = append(reqs, chaosRequest{url: u + "&partial=1", base: u})
		}
		reqs = append(reqs, chaosRequest{url: u + "&timeout_ms=30000", base: u})
	}
	return reqs
}

// stripMarkers drops the multi-query execution markers ("cached": true
// / "coalesced": true) whose presence is the only allowed difference
// from a solo run.
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

func fetch(t testing.TB, base, url string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Get(base + url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// chaosBody is the superset of every response shape the storm can see.
type chaosBody struct {
	Error       string `json:"error"`
	Incident    string `json:"incident"`
	Degraded    bool   `json:"degraded"`
	FailedTiles []struct {
		Tile int    `json:"tile"`
		Err  string `json:"err"`
	} `json:"failedTiles"`
}

func TestChaos(t *testing.T) {
	fault.Disarm()
	ts := chaosServer(t)
	reqs := chaosRequests()

	// Solo baselines, faults disarmed.
	baseline := make(map[string]string)
	for _, r := range reqs {
		if _, ok := baseline[r.base]; ok {
			continue
		}
		status, _, body := fetch(t, ts.URL, r.base)
		if status != http.StatusOK {
			t.Fatalf("baseline GET %s: status %d: %s", r.base, status, body)
		}
		baseline[r.base] = stripMarkers(body)
	}

	// Every site armed at once. The primes keep the sites' firing
	// patterns out of phase so the storm sees mixed, not synchronized,
	// failure modes; deterministic counters keep the run reproducible.
	if err := fault.Arm("tile-query:latency=5ms@7,tile-query:error@31,tile-join:panic@29,exact:error@43,exact:panic@61"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disarm)

	const (
		workers     = 8
		perWorker   = 30
		statusOK    = http.StatusOK
		statusShed  = http.StatusTooManyRequests
		statusSlow  = http.StatusGatewayTimeout
		statusBoom  = http.StatusInternalServerError
		statusBusy3 = http.StatusServiceUnavailable
	)
	var (
		mu     sync.Mutex
		counts = map[int]int{}
		fails  []string
	)
	report := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(fails) < 20 {
			fails = append(fails, fmt.Sprintf(format, args...))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r := reqs[(w*perWorker+i*13)%len(reqs)]
				status, hdr, body := fetch(t, ts.URL, r.url)
				mu.Lock()
				counts[status]++
				mu.Unlock()
				var cb chaosBody
				if err := json.Unmarshal([]byte(body), &cb); err != nil {
					report("GET %s: status %d, body is not JSON: %v", r.url, status, err)
					continue
				}
				switch status {
				case statusOK:
					if cb.Degraded {
						if len(cb.FailedTiles) == 0 {
							report("GET %s: degraded without failed tiles", r.url)
						}
						continue
					}
					if got := stripMarkers(body); got != baseline[r.base] {
						report("GET %s: non-injected 200 diverged from solo run", r.url)
					}
				case statusShed:
					if cb.Error == "" || hdr.Get("Retry-After") == "" {
						report("GET %s: malformed 429 (error %q, Retry-After %q)", r.url, cb.Error, hdr.Get("Retry-After"))
					}
				case statusSlow:
					if !strings.Contains(cb.Error, "deadline") {
						report("GET %s: 504 body %q does not explain the deadline", r.url, cb.Error)
					}
				case statusBoom:
					// Injected errors or a contained panic (which must
					// carry its incident ID).
					if cb.Error == "" {
						report("GET %s: 500 with empty error", r.url)
					}
					if strings.Contains(cb.Error, "incident") && cb.Incident == "" {
						report("GET %s: panic 500 without incident field: %s", r.url, body)
					}
				case statusBusy3:
					report("GET %s: unexpected 503: %s", r.url, cb.Error)
				default:
					report("GET %s: unexpected status %d: %s", r.url, status, body)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, f := range fails {
		t.Error(f)
	}
	t.Logf("chaos storm outcomes by status: %v", counts)
	if counts[statusOK] == 0 {
		t.Error("no request of the storm succeeded")
	}
	if counts[statusBoom] == 0 {
		t.Error("no injected failure surfaced — the storm did not exercise the faults")
	}
	t.Logf("injections: %+v", fault.Stats())

	// The server must come out healthy: faults off, every baseline URL
	// answers byte-identically — nothing degraded or corrupt was cached.
	fault.Disarm()
	for u, want := range baseline {
		status, _, body := fetch(t, ts.URL, u)
		if status != http.StatusOK {
			t.Fatalf("post-storm GET %s: status %d: %s", u, status, body)
		}
		if stripMarkers(body) != want {
			t.Errorf("post-storm GET %s diverged from the pre-storm solo run", u)
		}
	}

	// /stats must still parse and reflect the storm.
	status, _, body := fetch(t, ts.URL, "/stats")
	if status != http.StatusOK {
		t.Fatalf("post-storm /stats: status %d", status)
	}
	var st struct {
		Admission struct {
			Admitted int64 `json:"admitted"`
		} `json:"admission"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("post-storm /stats is not JSON: %v", err)
	}
	if st.Admission.Admitted == 0 {
		t.Error("admission stats recorded no admitted requests")
	}
}

// TestFailedJoinsLeaveBaselinesIntact is the storm's byte-identity
// contract made deterministic: 200 joins that each fail on an injected
// exact-test error must leave every request's answer — plan echo and
// /explain included — exactly what it was before them. The sub-joins
// that complete inside a failed join must leave nothing behind that a
// later plan reads.
func TestFailedJoinsLeaveBaselinesIntact(t *testing.T) {
	fault.Disarm()
	ts := chaosServer(t)
	urls := []string{"/explain?r=R&s=S"}
	for _, r := range chaosRequests() {
		urls = append(urls, r.base)
	}
	baseline := make(map[string]string)
	for _, u := range urls {
		status, _, body := fetch(t, ts.URL, u)
		if status != http.StatusOK {
			t.Fatalf("baseline GET %s: status %d: %s", u, status, body)
		}
		baseline[u] = stripMarkers(body)
	}

	if err := fault.Arm("exact:error@43"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disarm)
	const join = "/join?r=R&s=S&limit=50"
	for i := 0; i < 200; i++ {
		if status, _, body := fetch(t, ts.URL, join); status != http.StatusInternalServerError {
			t.Fatalf("join %d under exact:error@43: status %d, want 500: %s", i, status, body)
		}
	}
	fault.Disarm()

	for u, want := range baseline {
		status, _, body := fetch(t, ts.URL, u)
		if status != http.StatusOK {
			t.Fatalf("GET %s after the failed joins: status %d: %s", u, status, body)
		}
		if got := stripMarkers(body); got != want {
			t.Errorf("GET %s after the failed joins diverged from its baseline:\nbefore: %s\nafter:  %s", u, want, got)
		}
	}
}
