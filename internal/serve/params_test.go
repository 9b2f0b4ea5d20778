package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
