// Package serve is the concurrent query-serving layer on top of the
// multi-step processor: an HTTP service over a catalog of relations,
// answered by the internal/shard scatter-gather coordinator. A relation
// is a tile set, one tile or many: requests fan out to the owning tiles
// on per-tile storage.Sessions (one opened relation serves any number
// of simultaneous join, window, point and nearest-neighbour queries)
// and the merge layer reassembles one paper-faithful response per
// request.
//
// On top of that path sits the multi-query execution layer (DESIGN.md
// §12): a fingerprint-keyed, byte-bounded result cache and single-flight
// coalescing of identical concurrent requests. Both preserve
// byte-identical responses up to the cached/coalesced markers.
//
// The intended deployment is "build once, serve many": preprocess
// relations offline (cmd/datagen -store, optionally -shards N), open
// the persisted stores at startup (shard.Open), and serve queries from
// the immutable in-memory tiles. cmd/spatialjoinserve is the binary.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/hist"
	"spatialjoin/internal/mqe"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/resilience"
	"spatialjoin/internal/resilience/fault"
	"spatialjoin/internal/shard"
)

// Entry is one served relation — a tile set (possibly a single tile).
// Queries against the entry use the configuration it was built under,
// Sh.Cfg; joining two entries requires equal preprocessing
// fingerprints.
type Entry struct {
	Sh *shard.Sharded
	// Gen is the catalog generation of this entry: a counter bumped on
	// every registration. Cache keys include it, so re-registering a
	// name (a data swap) invalidates every cached response involving
	// the old entry even when the new build shares the configuration
	// fingerprint — the fingerprint identifies the preprocessing
	// configuration, not the data.
	Gen uint64
	// scope is the entry's cache-key scope (entryScope), fixed at
	// registration.
	scope string
}

// Catalog is the named set of relations a server exposes. Relations are
// registered at startup (or added at runtime — the catalog itself is
// concurrency-safe); the relations themselves are immutable once added.
type Catalog struct {
	mu   sync.RWMutex
	gen  uint64
	rels map[string]*Entry
	// quarantined maps relation names whose store failed to open to the
	// failure reason. A quarantined name answers 503 (the data exists but
	// this process cannot serve it) instead of 404, and the server keeps
	// serving the healthy relations. A successful (re-)registration
	// clears the quarantine.
	quarantined map[string]string
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{rels: make(map[string]*Entry), quarantined: make(map[string]string)}
}

// Add registers a relation under a name, replacing any previous entry.
// Replacement is how serving-layer caches invalidate: the new entry
// carries a fresh generation, so no stale response can be served for
// the name.
func (c *Catalog) Add(name string, sh *shard.Sharded) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.rels[name] = &Entry{Sh: sh, Gen: c.gen, scope: entryScope(name, c.gen, sh.Fingerprint())}
	delete(c.quarantined, name)
}

// Quarantine marks a relation name as registered-but-unservable: its
// store failed to open. The name answers 503 with the reason until a
// successful registration replaces it.
func (c *Catalog) Quarantine(name, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.quarantined[name] = reason
}

// Quarantined returns the quarantine reason of a name, if it is
// quarantined.
func (c *Catalog) Quarantined(name string) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	reason, ok := c.quarantined[name]
	return reason, ok
}

// QuarantinedAll snapshots the quarantined names and reasons (nil when
// none — the /stats field omits cleanly).
func (c *Catalog) QuarantinedAll() map[string]string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.quarantined) == 0 {
		return nil
	}
	out := make(map[string]string, len(c.quarantined))
	for n, r := range c.quarantined {
		out[n] = r
	}
	return out
}

// LoadDir opens a store directory under cfg (shard.Open, which refuses
// a single-file store or another format version with a rebuild message)
// and registers it under name. On failure the name is quarantined
// instead of registered, and the error is returned so the caller can log
// it: a server loading several relations keeps serving the healthy ones
// while the quarantined name answers 503 with the reason.
func (c *Catalog) LoadDir(name, path string, cfg multistep.Config) error {
	sh, err := shard.Open(path, cfg)
	if err != nil {
		err = fmt.Errorf("serve: open %s: %w", path, err)
		c.Quarantine(name, err.Error())
		return err
	}
	c.Add(name, sh)
	return nil
}

// Get returns the entry registered under name.
func (c *Catalog) Get(name string) (*Entry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.rels[name]
	return e, ok
}

// Names returns the registered relation names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.rels))
	for n := range c.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Server serves the catalog over HTTP. Every query request creates
// per-query sessions, so requests are handled fully concurrently.
//
// Joins and window/point queries run the relations' build
// configuration — its engine and filter setting, and GOMAXPROCS workers
// unless a join names its own — and every response echoes the plan that
// ran.
//
// Responses are served through the multi-query execution layer: a
// byte-bounded LRU result cache (CacheBytes) and single-flight
// coalescing of identical in-flight requests; a join that neither hits
// the cache nor coalesces runs its own traversal at once. Configure the
// fields before the first Handler call; they are latched when serving
// starts.
type Server struct {
	cat *Catalog
	// MaxJoinPairs caps the number of response pairs a /join request
	// returns inline, and is the limit of a request that names none (the
	// full count is always reported in the statistics). Defaults to
	// DefaultMaxJoinPairs.
	MaxJoinPairs int
	// CacheBytes bounds the shared result/tile cache in bytes; ≤ 0
	// disables caching. NewServer sets DefaultCacheBytes.
	CacheBytes int64

	// RequestTimeout is the default server-side deadline of each query
	// request; ≤ 0 means no default deadline. A request may pick its own
	// with ?timeout_ms=, capped by MaxRequestTimeout.
	RequestTimeout time.Duration
	// MaxRequestTimeout caps every request deadline, default or
	// per-request; ≤ 0 means uncapped.
	MaxRequestTimeout time.Duration
	// MaxInFlight bounds the query requests executing at once; ≤ 0
	// disables admission control. Requests beyond it wait in a queue of
	// at most MaxQueue for up to QueueWait, and everything beyond that is
	// shed with 429 and Retry-After.
	MaxInFlight int
	// MaxQueue is the admission wait-queue bound (only with MaxInFlight).
	MaxQueue int
	// QueueWait is how long a queued request waits for a slot before
	// being shed (only with MaxInFlight); ≤ 0 waits on the client alone.
	QueueWait time.Duration

	initOnce sync.Once
	cache    *mqe.Cache
	flight   mqe.Group
	metrics  map[string]*endpointTally
	limiter  *resilience.Limiter
	draining atomic.Bool
}

// endpointTally is one endpoint's request counters and latency
// histogram — the per-endpoint figures /stats reports. Recording is
// lock-free (atomics all the way down), so instrumentation costs a few
// nanoseconds per request.
type endpointTally struct {
	requests atomic.Int64
	latency  hist.Histogram
	// inflight is the instantaneous gauge of admitted, still-running
	// requests; the rest are the resilience outcome counters.
	inflight atomic.Int64
	shed     atomic.Int64
	timedOut atomic.Int64
	degraded atomic.Int64
	panics   atomic.Int64
}

// DefaultMaxJoinPairs bounds the /join response body.
const DefaultMaxJoinPairs = 10000

// DefaultCacheBytes is the default result/tile cache budget (64 MiB).
const DefaultCacheBytes int64 = 64 << 20

// NewServer returns a Server over the catalog.
func NewServer(cat *Catalog) *Server {
	return &Server{cat: cat, MaxJoinPairs: DefaultMaxJoinPairs, CacheBytes: DefaultCacheBytes}
}

// Handler returns the HTTP handler tree:
//
//	GET /healthz                                     liveness + relation count
//	GET /readyz                                      readiness: 503 while draining or empty
//	GET /relations                                   catalog listing
//	GET /stats                                       cache / coalesce / resilience counters
//	GET /window?rel=R&minx=&miny=&maxx=&maxy=        multi-step window query
//	         [&epsilon=ε][&limit=]                   (ε-range: within ε of the window)
//	GET /point?rel=R&x=&y=[&epsilon=ε][&limit=]      multi-step point / ε-range query
//	GET /nearest?rel=R&x=&y=&k=5                     k nearest objects by region distance
//	GET /join?r=R&s=S[&predicate=intersects|contains|within]
//	         [&epsilon=ε][&limit=][&workers=]        multi-step spatial join
//	GET /explain?r=R&s=S[&predicate=][&epsilon=]     EXPLAIN a join: per-tile-pair
//	         [&run=1][&workers=]                     plans, with run=1 executed and
//	                                                 the measured counts
//
// All responses are JSON; query statistics (the paper's per-step
// measures, including the per-query buffer page accesses) ride along
// with every result. /join, /window and /point echo the plan that ran
// (engine, filter, workers) in the response.
//
// A response served from the result cache carries "cached": true; one
// that received a concurrent identical request's result carries
// "coalesced": true. Apart from those markers, cached and coalesced
// responses are byte-identical to solo runs — same sort order, same
// statistics (the original run's, as DESIGN.md §12 specifies).
//
// Every handler threads the request context through the query pipeline:
// when the client disconnects, every join worker stops at its next node
// pair, so a cancelled request releases its workers instead of running
// the join to completion.
//
// Query endpoints additionally accept &timeout_ms= (a per-request
// server-side deadline, capped by MaxRequestTimeout; a fired deadline
// answers 504), and /window, /point and /nearest accept &partial=1
// (degrade to the surviving tiles on tile failure instead of failing
// the whole request — the response carries degraded:true and the failed
// tiles; joins always fail closed and reject the parameter). When
// admission control is configured, requests beyond the in-flight and
// queue bounds are shed with 429 and Retry-After.
func (s *Server) Handler() http.Handler {
	s.init()
	mux := http.NewServeMux()
	tally := func(name string) *endpointTally {
		t := s.metrics[name]
		if t == nil {
			t = &endpointTally{}
			s.metrics[name] = t
		}
		return t
	}
	register := func(name string, h http.HandlerFunc) {
		t := tally(name)
		mux.HandleFunc("GET /"+name, func(w http.ResponseWriter, r *http.Request) {
			t.requests.Add(1)
			start := time.Now()
			h(w, r)
			t.latency.RecordDuration(time.Since(start))
		})
	}
	// guard wraps the query endpoints in the resilience envelope:
	// admission control (shed with 429 + Retry-After when saturated),
	// the server-side deadline (?timeout_ms= capped by the server max),
	// and the request-level panic boundary (500 with an incident ID; the
	// process keeps serving). It parses the query string, once: the
	// deadline and every parameter reader take the parsed values.
	guard := func(name string, h func(http.ResponseWriter, *http.Request, url.Values, *endpointTally)) {
		t := tally(name)
		mux.HandleFunc("GET /"+name, func(w http.ResponseWriter, r *http.Request) {
			t.requests.Add(1)
			start := time.Now()
			defer func() { t.latency.RecordDuration(time.Since(start)) }()
			release, err := s.limiter.Acquire(r.Context())
			if err != nil {
				if errors.Is(err, resilience.ErrSaturated) {
					t.shed.Add(1)
					w.Header().Set("Retry-After", "1")
					writeError(w, http.StatusTooManyRequests, "server saturated: %d in flight, queue full", s.MaxInFlight)
				}
				// Otherwise the client gave up while queued; write nothing.
				return
			}
			defer release()
			t.inflight.Add(1)
			defer t.inflight.Add(-1)
			q := r.URL.Query()
			r2, cancel, ok := s.withDeadline(w, r, q)
			if !ok {
				return
			}
			defer cancel()
			defer func() {
				if rec := recover(); rec != nil {
					pe := resilience.Recovered(name, rec)
					t.panics.Add(1)
					logIncident(pe)
					writeJSON(w, http.StatusInternalServerError,
						errorBody{Error: fmt.Sprintf("internal error (incident %s)", pe.Incident), Incident: pe.Incident})
				}
			}()
			h(w, r2, q, t)
		})
	}
	register("healthz", s.handleHealthz)
	register("readyz", s.handleReadyz)
	register("relations", s.handleRelations)
	register("stats", s.handleStats)
	guard("window", s.handleWindow)
	guard("point", s.handlePoint)
	guard("nearest", s.handleNearest)
	guard("join", s.handleJoin)
	guard("explain", s.handleExplain)
	return mux
}

// errDeadline is the cancellation cause of a fired server-side request
// deadline. It wraps context.DeadlineExceeded so every layer's deadline
// check keeps working, while finishQuery can tell a server-imposed
// deadline (504) from a client that set its own and went away (write
// nothing).
var errDeadline = fmt.Errorf("server-side request deadline exceeded: %w", context.DeadlineExceeded)

// withDeadline applies the request's deadline: ?timeout_ms= if given
// (positive integer milliseconds), else the server default, both capped
// by MaxRequestTimeout. It reports false after writing a 400 for a
// malformed or non-positive timeout_ms.
func (s *Server) withDeadline(w http.ResponseWriter, r *http.Request, q url.Values) (*http.Request, context.CancelFunc, bool) {
	d := s.RequestTimeout
	if raw := q.Get("timeout_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms <= 0 {
			writeError(w, http.StatusBadRequest, "parameter %q must be a positive integer of milliseconds", "timeout_ms")
			return nil, nil, false
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if s.MaxRequestTimeout > 0 && (d <= 0 || d > s.MaxRequestTimeout) {
		d = s.MaxRequestTimeout
	}
	if d <= 0 {
		return r, func() {}, true
	}
	ctx, cancel := context.WithTimeoutCause(r.Context(), d, errDeadline)
	return r.WithContext(ctx), cancel, true
}

// SetDraining flips the readiness gate: a draining server still answers
// in-flight and even new requests (the listener closes separately), but
// /readyz reports 503 so orchestrators stop routing to it.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// jsonWriter is a pooled response encoder: a body buffer and an
// indenting json.Encoder over it, whose indent buffer is reused with it.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledBody bounds the buffer of a jsonWriter that goes back to the
// pool: a writer that grew past it (a large /join body) is dropped, so
// one large response cannot pin its buffers for the process lifetime.
const maxPooledBody = 1 << 20

var jsonWriters = sync.Pool{New: func() any {
	jw := &jsonWriter{}
	jw.enc = json.NewEncoder(&jw.buf)
	jw.enc.SetIndent("", "  ")
	return jw
}}

// writeJSON answers with v as an indented JSON body. The body is encoded
// before the status line is written, so a value encoding/json rejects
// (a non-finite float, say) answers 500 with an errorBody instead of the
// intended status and an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	jw := jsonWriters.Get().(*jsonWriter)
	if err := jw.enc.Encode(v); err != nil {
		log.Printf("serve: encode response: %v", err)
		jw.buf.Reset()
		status = http.StatusInternalServerError
		_ = jw.enc.Encode(errorBody{Error: fmt.Sprintf("internal error: encode response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(jw.buf.Bytes())
	if jw.buf.Cap() <= maxPooledBody {
		jw.buf.Reset()
		jsonWriters.Put(jw)
	}
}

type errorBody struct {
	Error string `json:"error"`
	// Incident correlates a 500 response with the server-side log line
	// carrying the recovered panic's stack.
	Incident string `json:"incident,omitempty"`
	// RFingerprint and SFingerprint carry the two preprocessing
	// fingerprints of a /join configuration-mismatch conflict, so the
	// caller can see which side to rebuild.
	RFingerprint string `json:"rFingerprint,omitempty"`
	SFingerprint string `json:"sFingerprint,omitempty"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "relations": len(s.cat.Names())})
}

// handleReadyz answers readiness, as distinct from /healthz liveness: a
// live process is not ready while it has nothing to serve or while it
// is draining for shutdown.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	n := len(s.cat.Names())
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining", "relations": n})
	case n == 0:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "no relations loaded", "relations": 0})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "relations": n})
	}
}

// tileInfo is one shard row of a relation listing.
type tileInfo struct {
	Index   int       `json:"index"`
	Objects int       `json:"objects"`
	MBR     geom.Rect `json:"mbr"`
}

// relationInfo is one catalog listing row. Height is the tallest tile
// tree, Pages the total across tiles.
type relationInfo struct {
	Name        string     `json:"name"`
	Objects     int        `json:"objects"`
	MBR         geom.Rect  `json:"mbr"`
	Fingerprint string     `json:"fingerprint"`
	Shards      int        `json:"shards"`
	Height      int        `json:"treeHeight"`
	Pages       int        `json:"treePages"`
	Engine      string     `json:"engine"`
	Tiles       []tileInfo `json:"tiles"`
}

// fingerprintString renders a preprocessing fingerprint the way the
// listing and error bodies report it.
func fingerprintString(fp uint64) string { return fmt.Sprintf("%016x", fp) }

func (s *Server) handleRelations(w http.ResponseWriter, r *http.Request) {
	var out []relationInfo
	for _, name := range s.cat.Names() {
		e, ok := s.cat.Get(name)
		if !ok {
			continue
		}
		info := relationInfo{
			Name:        name,
			Objects:     e.Sh.Objects(),
			MBR:         e.Sh.MBR(),
			Fingerprint: fingerprintString(e.Sh.Fingerprint()),
			Shards:      e.Sh.Shards(),
			Engine:      e.Sh.Cfg.Engine.String(),
		}
		for _, t := range e.Sh.Tiles {
			if h := t.Rel.Tree.Height(); h > info.Height {
				info.Height = h
			}
			info.Pages += t.Rel.Tree.Pages()
			info.Tiles = append(info.Tiles, tileInfo{Index: t.Index, Objects: len(t.Rel.Objects), MBR: t.MBR})
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// planEcho is the execution-plan echo of /join, /window and /point: the
// knobs that ran.
type planEcho struct {
	Engine  string `json:"engine"`
	Filter  bool   `json:"filter"`
	Workers int    `json:"workers"`
}

func echoOf(p multistep.Plan) planEcho {
	return planEcho{Engine: p.Engine, Filter: p.UseFilter, Workers: p.Workers}
}

// windowResponse answers /window and /point. IDs are ascending global
// object IDs (the scatter-gather merge order), truncated to the limit
// when one was given; Stats aggregates the routed tiles, with the
// per-tile breakdown alongside. Plan echoes the plan the routed tiles
// ran — the shard fan-out is len(Stats.Tiles). Cached and Coalesced are the multi-query execution
// markers; they lead the struct so stripping their lines from the JSON
// body yields the solo-run response.
type windowResponse struct {
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Degraded marks a partial=1 response that lost tiles; FailedTiles
	// lists them. Degraded responses are never cached.
	Degraded    bool                `json:"degraded,omitempty"`
	FailedTiles []shard.TileFailure `json:"failedTiles,omitempty"`
	Relation    string              `json:"relation"`
	IDs         []int32             `json:"ids"`
	Truncated   bool                `json:"truncated"`
	Plan        planEcho            `json:"plan"`
	Stats       shard.QueryStats    `json:"stats"`
}

func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request, q url.Values, t *endpointTally) {
	s.serveQuery(w, r, q, t, kindWindow)
}

func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request, q url.Values, t *endpointTally) {
	s.serveQuery(w, r, q, t, kindPoint)
}

// serveQuery is the shared /window and /point handler: canonical
// execution through the multi-query layer, then per-request derivation
// (sorted-prefix limit, recomputed result count).
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, q url.Values, t *endpointTally, kind queryKind) {
	p, ok := s.parseQuery(w, q, kind)
	if !ok {
		return
	}
	qc, cached, coalesced, err := runCanonical(r.Context(), s, p, p.limit, s.execQuery)
	if !s.finishQuery(w, r, t, err) {
		return
	}
	if qc.Degraded {
		t.degraded.Add(1)
	}
	ids := qc.IDs
	truncated := false
	if p.limit >= 0 && len(ids) > p.limit {
		ids = ids[:p.limit]
		truncated = true
	}
	if ids == nil {
		ids = []int32{}
	}
	stats := qc.Stats
	stats.ResultObjects = int64(len(ids))
	writeJSON(w, http.StatusOK, windowResponse{
		Cached:      cached,
		Coalesced:   coalesced,
		Degraded:    qc.Degraded,
		FailedTiles: qc.Failed,
		Relation:    p.name,
		IDs:         ids,
		Truncated:   truncated,
		Plan:        qc.Plan,
		Stats:       stats,
	})
}

// finishQuery maps a query error onto the response: a fired server-side
// deadline is 504, a recovered panic or fired injection is 500 (the
// panic with its incident ID), a client that went away on its own gets
// nothing written, and any other error is a bad request. It reports
// whether the handler should proceed to write the result. It logs
// nothing: the execution that recovered a panic logged it (logIncident),
// and every request coalesced onto that execution answers with the same
// incident ID.
func (s *Server) finishQuery(w http.ResponseWriter, r *http.Request, t *endpointTally, err error) bool {
	if err == nil {
		return true
	}
	ctx := r.Context()
	if ctx.Err() != nil {
		if errors.Is(context.Cause(ctx), errDeadline) {
			t.timedOut.Add(1)
			writeError(w, http.StatusGatewayTimeout, "%v", context.Cause(ctx))
			return false
		}
		return false // client disconnected; the pipeline already stopped
	}
	if pe, ok := resilience.AsPanic(err); ok {
		t.panics.Add(1)
		writeJSON(w, http.StatusInternalServerError,
			errorBody{Error: fmt.Sprintf("internal error (incident %s)", pe.Incident), Incident: pe.Incident})
		return false
	}
	if fault.IsInjected(err) {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return false
	}
	writeError(w, http.StatusBadRequest, "%v", err)
	return false
}

// logIncident logs a recovered panic's stack under its incident ID. An
// execution calls it once with its own error, so an incident is logged
// once however many coalesced requests answer with it, and whether or
// not the client that started the execution is still there.
func logIncident(err error) {
	if pe, ok := resilience.AsPanic(err); ok {
		log.Printf("serve: %v\n%s", pe, pe.Stack)
	}
}

// nearestStats carries the per-query page accounting of a nearest
// query (the multi-step WindowStats do not apply to the best-first
// search, but the paper's page-access metric does).
type nearestStats struct {
	// PageAccesses counts the page touches that missed the buffer —
	// the paper's I/O metric for this query alone.
	PageAccesses int64
	// PageTouches counts all page touches of the best-first search.
	PageTouches int64
}

// nearestResponse answers /nearest.
type nearestResponse struct {
	Cached      bool                 `json:"cached,omitempty"`
	Coalesced   bool                 `json:"coalesced,omitempty"`
	Degraded    bool                 `json:"degraded,omitempty"`
	FailedTiles []shard.TileFailure  `json:"failedTiles,omitempty"`
	Relation    string               `json:"relation"`
	Neighbors   []multistep.Neighbor `json:"neighbors"`
	Stats       nearestStats         `json:"stats"`
}

func (s *Server) handleNearest(w http.ResponseWriter, r *http.Request, q url.Values, t *endpointTally) {
	p, ok := s.parseQuery(w, q, kindNearest)
	if !ok {
		return
	}
	qc, cached, coalesced, err := runCanonical(r.Context(), s, p, p.limit, s.execQuery)
	if !s.finishQuery(w, r, t, err) {
		return
	}
	if qc.Degraded {
		t.degraded.Add(1)
	}
	nn := qc.Neighbors
	if nn == nil {
		nn = []multistep.Neighbor{}
	}
	writeJSON(w, http.StatusOK, nearestResponse{
		Cached:      cached,
		Coalesced:   coalesced,
		Degraded:    qc.Degraded,
		FailedTiles: qc.Failed,
		Relation:    p.name,
		Neighbors:   nn,
		Stats:       nearestStats{PageAccesses: qc.Stats.PageAccesses, PageTouches: qc.Stats.PageTouches},
	})
}

// joinResponse answers /join. Pairs is truncated to the limit; the full
// response-set size is Stats.ResultPairs. Stats aggregates the tile-pair
// sub-joins (SubJoins of them) as shard.Join documents. Plan echoes the
// plan the sub-joins ran; /explain has the per-tile-pair breakdown.
// Cached and Coalesced lead the struct so stripping their lines from the
// JSON body yields the solo-run response.
type joinResponse struct {
	Cached    bool             `json:"cached,omitempty"`
	Coalesced bool             `json:"coalesced,omitempty"`
	R         string           `json:"r"`
	S         string           `json:"s"`
	Predicate string           `json:"predicate"`
	Pairs     []multistep.Pair `json:"pairs"`
	Truncated bool             `json:"truncated"`
	SubJoins  int              `json:"subJoins"`
	Plan      planEcho         `json:"plan"`
	Stats     multistep.Stats  `json:"stats"`
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request, q url.Values, t *endpointTally) {
	p, ok := s.parseJoin(w, q, true)
	if !ok {
		return
	}
	// The scatter-gather join collects the full response set and sorts
	// before truncating: both sub-join emission order and tile
	// completion order depend on scheduling, so keeping "the first
	// limit pairs" would return a different subset per request on
	// multi-core hosts. The canonical result is capped at the limit of
	// the request that computed it and serves only requests whose limit
	// it reaches, so this request's answer is a sorted prefix of it. The
	// request context rides along and fans out to every tile, so a
	// disconnected client stops all sub-joins.
	jc, cached, coalesced, err := runCanonical(r.Context(), s, p, p.limit, s.execJoin)
	if !s.finishQuery(w, r, t, err) {
		return
	}
	pairs := jc.Pairs
	if len(pairs) > p.limit {
		pairs = pairs[:p.limit]
	}
	if pairs == nil {
		pairs = []multistep.Pair{}
	}
	writeJSON(w, http.StatusOK, joinResponse{
		Cached:    cached,
		Coalesced: coalesced,
		R:         p.nameR,
		S:         p.nameS,
		Predicate: p.pred.String(),
		Pairs:     pairs,
		Truncated: jc.Stats.ResultPairs > int64(len(pairs)),
		SubJoins:  jc.SubJoins,
		Plan:      jc.Plan,
		Stats:     jc.Stats,
	})
}

// explainResponse answers /explain: the aggregate EXPLAIN record plus
// the per-tile-pair plans of the scatter-gather join.
type explainResponse struct {
	R         string `json:"r"`
	S         string `json:"s"`
	Predicate string `json:"predicate"`
	Run       bool   `json:"run"`
	shard.ExplainResult
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, q url.Values, t *endpointTally) {
	p, ok := s.parseJoin(w, q, false)
	if !ok {
		return
	}
	run := flagParam(q, "run")
	opts := []multistep.Option{multistep.WithPredicate(p.pred)}
	if p.workers > 0 {
		opts = append(opts, multistep.WithWorkers(p.workers))
	}
	res, err := shard.Explain(r.Context(), p.eR.Sh, p.eS.Sh, run, opts...)
	logIncident(err)
	if !s.finishQuery(w, r, t, err) {
		return
	}
	writeJSON(w, http.StatusOK, explainResponse{
		R: p.nameR, S: p.nameS,
		Predicate:     p.pred.String(),
		Run:           run,
		ExplainResult: res,
	})
}
