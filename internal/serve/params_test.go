package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatialjoin/internal/data"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/shard"
)

// getError issues the request, asserts the status, and asserts the body
// is a well-formed JSON error envelope with a non-empty message — the
// contract every rejected request must honour (clients parse the
// envelope, never scrape HTML or plain text).
func getError(t *testing.T, h http.Handler, url string, wantStatus int) errorBody {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s: status %d (want %d): %s", url, rec.Code, wantStatus, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: Content-Type %q, want application/json", url, ct)
	}
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("GET %s: error body is not JSON: %v: %s", url, err, rec.Body)
	}
	if e.Error == "" {
		t.Fatalf("GET %s: error body without a message: %s", url, rec.Body)
	}
	return e
}

// TestParamRejections pins the 4xx surface of the parameter layer:
// every malformed request is rejected with the intended status and a
// JSON error body, never silently reinterpreted.
func TestParamRejections(t *testing.T) {
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()

	cases := []struct {
		name   string
		url    string
		status int
	}{
		// Missing and unknown relations.
		{"window missing rel", "/window?minx=0&miny=0&maxx=1&maxy=1", http.StatusBadRequest},
		{"window unknown rel", "/window?rel=nope&minx=0&miny=0&maxx=1&maxy=1", http.StatusNotFound},
		{"join missing r", "/join?s=S", http.StatusBadRequest},
		{"join unknown s", "/join?r=R&s=nope", http.StatusNotFound},
		{"nearest unknown rel", "/nearest?rel=nope&x=0&y=0", http.StatusNotFound},

		// Missing and malformed geometry.
		{"window missing maxy", "/window?rel=R&minx=0&miny=0&maxx=1", http.StatusBadRequest},
		{"window malformed minx", "/window?rel=R&minx=abc&miny=0&maxx=1&maxy=1", http.StatusBadRequest},
		{"window swapped corners", "/window?rel=R&minx=0.6&miny=0.6&maxx=0.4&maxy=0.4", http.StatusBadRequest},
		{"window swapped y, within", "/window?rel=R&minx=0.4&miny=0.6&maxx=0.6&maxy=0.4&predicate=within&epsilon=0.2", http.StatusBadRequest},
		{"point missing y", "/point?rel=R&x=0.5", http.StatusBadRequest},

		// Negative and overflowing limits: rejected, not clamped — a
		// client whose paging arithmetic went negative should hear about
		// it rather than receive the largest possible response.
		{"window negative limit", "/window?rel=R&minx=0&miny=0&maxx=1&maxy=1&limit=-1", http.StatusBadRequest},
		{"window overflow limit", "/window?rel=R&minx=0&miny=0&maxx=1&maxy=1&limit=99999999999999999999", http.StatusBadRequest},
		{"point negative limit", "/point?rel=R&x=0.5&y=0.5&limit=-7", http.StatusBadRequest},
		{"join negative limit", "/join?r=R&s=S&limit=-1", http.StatusBadRequest},
		{"join overflow limit", "/join?r=R&s=S&limit=10000000000000000000000", http.StatusBadRequest},
		{"join malformed limit", "/join?r=R&s=S&limit=ten", http.StatusBadRequest},

		// Malformed and misapplied epsilon.
		{"window malformed epsilon", "/window?rel=R&minx=0&miny=0&maxx=1&maxy=1&epsilon=wide", http.StatusBadRequest},
		{"join malformed epsilon", "/join?r=R&s=S&epsilon=0..1", http.StatusBadRequest},
		{"join epsilon on contains", "/join?r=R&s=S&predicate=contains&epsilon=0.1", http.StatusBadRequest},

		// Unknown predicates and malformed counts.
		{"join unknown predicate", "/join?r=R&s=S&predicate=overlaps", http.StatusBadRequest},
		{"window unknown predicate", "/window?rel=R&minx=0&miny=0&maxx=1&maxy=1&predicate=touches", http.StatusBadRequest},
		{"nearest k=0", "/nearest?rel=R&x=0.5&y=0.5&k=0", http.StatusBadRequest},
		{"nearest malformed k", "/nearest?rel=R&x=0.5&y=0.5&k=few", http.StatusBadRequest},
		{"join malformed workers", "/join?r=R&s=S&workers=many", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			getError(t, h, tc.url, tc.status)
		})
	}
}

// TestJoinFingerprintConflict pins the 409 shape: joining relations
// preprocessed under different configurations reports both fingerprints
// so the caller can see which side to rebuild.
func TestJoinFingerprintConflict(t *testing.T) {
	cfg := multistep.DefaultConfig()
	other := cfg
	other.PageSize = cfg.PageSize * 2
	polys := data.GenerateMap(data.MapConfig{Cells: 40, TargetVerts: 32, Seed: 7})
	cat := NewCatalog()
	cat.Add("R", shard.FromRelation(multistep.NewRelation("R", polys, cfg)))
	cat.Add("S", shard.FromRelation(multistep.NewRelation("S", polys, other)))
	h := NewServer(cat).Handler()
	e409 := getError(t, h, "/join?r=R&s=S", http.StatusConflict)
	if len(e409.RFingerprint) != 16 || len(e409.SFingerprint) != 16 || e409.RFingerprint == e409.SFingerprint {
		t.Fatalf("conflict body fingerprints: %+v", e409)
	}
}

// TestValidLimitsStillServe guards the hardening against over-reach:
// limit=0 and large-but-representable limits remain valid.
func TestValidLimitsStillServe(t *testing.T) {
	cat, _ := testCatalog(t)
	h := NewServer(cat).Handler()
	var win struct {
		IDs []int32 `json:"ids"`
	}
	get(t, h, "/window?rel=R&minx=0&miny=0&maxx=1&maxy=1&limit=0", http.StatusOK, &win)
	if len(win.IDs) != 0 {
		t.Fatalf("limit=0 returned %d ids", len(win.IDs))
	}
	var join struct {
		Pairs []struct{ A, B int32 } `json:"pairs"`
		Stats struct {
			ResultPairs int64
		} `json:"stats"`
	}
	get(t, h, "/join?r=R&s=S&limit=1000000000", http.StatusOK, &join)
	if join.Stats.ResultPairs == 0 {
		t.Fatal("join returned no pairs at all")
	}
}

// TestQueryStringSemantics pins what parsing the query string once must
// keep from reading each parameter with r.URL.Query(): a duplicated key
// resolves to its first value, a pair that fails to parse (a malformed
// escape, a ';') is dropped without rejecting the request, escapes
// decode in keys and values alike ("%2B" is a plus sign, "+" a space),
// and timeout_ms is still validated. A 200 case must answer the same
// body as its plain spelling, an error case an error naming the cause.
// The cache is off, so no answer carries a cached marker.
func TestQueryStringSemantics(t *testing.T) {
	cat, _ := testCatalog(t)
	srv := NewServer(cat)
	srv.CacheBytes = -1
	h := srv.Handler()

	const pt = "/point?rel=R&x=0.31&y=0.47"
	const win = "/window?rel=R&minx=0&miny=0&maxx=1&maxy=1"
	cases := []struct {
		name, url string
		status    int
		same      string // 200: the URL whose body this one must equal
		errHas    string // 4xx: a substring of the error message
	}{
		{"duplicated limit", win + "&limit=5&limit=7", http.StatusOK, win + "&limit=5", ""},
		{"duplicated rel", "/point?rel=R&rel=S&x=0.31&y=0.47", http.StatusOK, pt, ""},
		{"duplicated bad limit after a good one", win + "&limit=5&limit=-1", http.StatusOK, win + "&limit=5", ""},
		{"duplicated good limit after a bad one", win + "&limit=-1&limit=5", http.StatusBadRequest, "", `"limit" must not be negative`},
		{"malformed escape in an unrelated pair", pt + "&junk=%zz", http.StatusOK, pt, ""},
		{"semicolon in an unrelated pair", pt + "&a=1;b=2", http.StatusOK, pt, ""},
		{"malformed escape drops its own pair", "/point?rel=R&x=0.31&y=0.4%zz", http.StatusBadRequest, "", `missing parameter "y"`},
		{"semicolon drops its own pair", "/point?rel=R&x=0.31;y=0.47&y=0.47", http.StatusBadRequest, "", `missing parameter "x"`},
		{"escaped key", "/point?%72el=R&x=0.31&y=0.47", http.StatusOK, pt, ""},
		{"%2B sign in a float", "/point?rel=R&x=%2B0.31&y=0.47", http.StatusOK, pt, ""},
		{"%2B exponent in a float", "/point?rel=R&x=0.031e%2B1&y=0.47", http.StatusOK, pt, ""},
		{"+ is a space in a float", "/point?rel=R&x=+0.31&y=0.47", http.StatusBadRequest, "", `parameter "x"`},
		{"+ is a space in an exponent", "/point?rel=R&x=0.031e+1&y=0.47", http.StatusBadRequest, "", `parameter "x"`},
		{"%2B in epsilon", pt + "&epsilon=%2B0.01", http.StatusOK, pt + "&epsilon=0.01", ""},
		{"empty limit is no limit", win + "&limit=", http.StatusOK, win, ""},
		{"valid timeout_ms", pt + "&timeout_ms=60000", http.StatusOK, pt, ""},
		{"zero timeout_ms", pt + "&timeout_ms=0", http.StatusBadRequest, "", "timeout_ms"},
		{"malformed timeout_ms", pt + "&timeout_ms=soon", http.StatusBadRequest, "", "timeout_ms"},
		{"duplicated timeout_ms, valid first", pt + "&timeout_ms=60000&timeout_ms=soon", http.StatusOK, pt, ""},
		{"duplicated timeout_ms, malformed first", pt + "&timeout_ms=soon&timeout_ms=60000", http.StatusBadRequest, "", "timeout_ms"},
		{"duplicated predicate", "/join?r=R&s=S&predicate=contains&predicate=overlaps&limit=3", http.StatusOK, "/join?r=R&s=S&predicate=contains&limit=3", ""},
		{"duplicated run flag", "/explain?r=R&s=S&run=0&run=1", http.StatusOK, "/explain?r=R&s=S", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.status != http.StatusOK {
				if e := getError(t, h, tc.url, tc.status); !strings.Contains(e.Error, tc.errHas) {
					t.Fatalf("GET %s: error %q does not contain %q", tc.url, e.Error, tc.errHas)
				}
				return
			}
			got, want := getBody(t, h, tc.url, tc.status), getBody(t, h, tc.same, http.StatusOK)
			if got != want {
				t.Fatalf("GET %s answered\n%s\nwant the body of GET %s:\n%s", tc.url, got, tc.same, want)
			}
		})
	}
}
