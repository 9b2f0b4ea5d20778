package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
)

// Request parameter parsing. The query string is parsed once per
// request (the guard in Handler) and every reader below takes the
// parsed url.Values: like url.Values.Get, a duplicated key resolves to
// its first value, and a pair that fails to parse (a malformed escape, a
// ';') is dropped without rejecting the request. Every query endpoint
// funnels through parseQuery or parseJoin: one validated parse producing
// the typed parameter set that is also the canonical cache identity —
// the same struct builds the normalized cache key (cacheKey), so a
// request can never be cached under parameters other than the ones it
// validated.

// relParam resolves the relation named by the query parameter key,
// returning the entry and its catalog name.
func (s *Server) relParam(w http.ResponseWriter, q url.Values, key string) (*Entry, string, bool) {
	name := q.Get(key)
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing relation parameter %q", key)
		return nil, "", false
	}
	e, ok := s.cat.Get(name)
	if !ok {
		if reason, q := s.cat.Quarantined(name); q {
			writeError(w, http.StatusServiceUnavailable, "relation %q is quarantined: %s", name, reason)
			return nil, "", false
		}
		writeError(w, http.StatusNotFound, "unknown relation %q", name)
		return nil, "", false
	}
	return e, name, true
}

// parseFinite parses the value of a float parameter. strconv.ParseFloat
// accepts "NaN" and "Inf", and every comparison with NaN is false — a
// NaN coordinate or distance bound would pass the range checks and reach
// the geometry kernels — so nothing but a finite number is a value.
func parseFinite(raw string) (float64, error) {
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is not a finite number", raw)
	}
	return v, nil
}

// floatParam parses a required float query parameter.
func floatParam(w http.ResponseWriter, q url.Values, key string) (float64, bool) {
	raw := q.Get(key)
	if raw == "" {
		writeError(w, http.StatusBadRequest, "missing parameter %q", key)
		return 0, false
	}
	v, err := parseFinite(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parameter %q: %v", key, err)
		return 0, false
	}
	return v, true
}

// intParam parses an optional int query parameter with a default.
func intParam(w http.ResponseWriter, q url.Values, key string, def int) (int, bool) {
	raw := q.Get(key)
	if raw == "" {
		return def, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parameter %q: %v", key, err)
		return 0, false
	}
	return v, true
}

// limitParam parses the optional limit parameter. A negative limit is
// rejected rather than silently treated as "no limit": a client
// computing limits (paging arithmetic gone wrong, integer overflow on
// its side) should hear about it, not receive the largest possible
// response. Out-of-range numerals (strconv overflow) fail the same way.
func limitParam(w http.ResponseWriter, q url.Values, def int) (int, bool) {
	raw := q.Get("limit")
	if raw == "" {
		return def, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parameter %q: %v", "limit", err)
		return 0, false
	}
	if v < 0 {
		writeError(w, http.StatusBadRequest, "parameter %q must not be negative", "limit")
		return 0, false
	}
	return v, true
}

// predicateParam resolves the optional predicate of a request: the
// plain intersection query without parameters, the ε-range
// (within-distance) query with epsilon (or predicate=within&epsilon=ε).
// As in cmd/spatialjoin, an epsilon promotes the (default or explicit)
// intersects predicate to within; an epsilon on a predicate that takes
// none (contains) is rejected rather than silently dropped.
func predicateParam(w http.ResponseWriter, q url.Values) (multistep.Predicate, bool) {
	name := q.Get("predicate")
	rawEps := q.Get("epsilon")
	eps := 0.0
	if rawEps != "" {
		v, err := parseFinite(rawEps)
		if err != nil {
			writeError(w, http.StatusBadRequest, "parameter %q: %v", "epsilon", err)
			return multistep.Predicate{}, false
		}
		eps = v
		switch strings.ToLower(name) {
		case "", "intersects", "intersect":
			name = "within"
		case "within", "within-distance", "distance", "epsilon":
		default:
			writeError(w, http.StatusBadRequest,
				"parameter %q is only valid with the within predicate, not %q", "epsilon", name)
			return multistep.Predicate{}, false
		}
	}
	pred, err := multistep.ParsePredicate(name, eps)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return multistep.Predicate{}, false
	}
	return pred, true
}

// queryKind selects the target shape of a single-relation request.
type queryKind int

const (
	kindWindow queryKind = iota
	kindPoint
	kindNearest
)

// queryParams is the validated parameter set of a /window, /point or
// /nearest request — the canonical form behind its cache key.
type queryParams struct {
	e    *Entry
	name string
	kind queryKind
	win  geom.Rect
	pt   geom.Point
	k    int
	pred multistep.Predicate
	// partial opts into graceful degradation: tile failures drop out of
	// the merged answer (degraded response) instead of failing the whole
	// request. Part of the cache key — a strict request must never be
	// answered from a canonical result computed permissively.
	partial bool
	// limit caps the response IDs (window/point only); -1 is uncapped.
	// Deliberately NOT part of the cache key: the canonical result is
	// computed uncapped and every limit is a sorted prefix of it.
	limit int
}

// flagParam reads an optional boolean parameter (partial, run): off
// unless set to 1, true, yes or on.
func flagParam(q url.Values, key string) bool {
	switch strings.ToLower(q.Get(key)) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// parseQuery validates a single-relation request of the given kind.
func (s *Server) parseQuery(w http.ResponseWriter, q url.Values, kind queryKind) (*queryParams, bool) {
	p := &queryParams{kind: kind, limit: -1}
	var ok bool
	if p.e, p.name, ok = s.relParam(w, q, "rel"); !ok {
		return nil, false
	}
	switch kind {
	case kindWindow:
		minx, ok := floatParam(w, q, "minx")
		if !ok {
			return nil, false
		}
		miny, ok := floatParam(w, q, "miny")
		if !ok {
			return nil, false
		}
		maxx, ok := floatParam(w, q, "maxx")
		if !ok {
			return nil, false
		}
		maxy, ok := floatParam(w, q, "maxy")
		if !ok {
			return nil, false
		}
		p.win = geom.Rect{MinX: minx, MinY: miny, MaxX: maxx, MaxY: maxy}
	case kindPoint, kindNearest:
		x, ok := floatParam(w, q, "x")
		if !ok {
			return nil, false
		}
		y, ok := floatParam(w, q, "y")
		if !ok {
			return nil, false
		}
		p.pt = geom.Point{X: x, Y: y}
	}
	p.partial = flagParam(q, "partial")
	if kind == kindNearest {
		k, ok := intParam(w, q, "k", 5)
		if !ok {
			return nil, false
		}
		if k < 1 {
			writeError(w, http.StatusBadRequest, "parameter %q must be positive", "k")
			return nil, false
		}
		p.k = k
		return p, true
	}
	var ok2 bool
	if p.pred, ok2 = predicateParam(w, q); !ok2 {
		return nil, false
	}
	limit, ok2 := limitParam(w, q, -1)
	if !ok2 {
		return nil, false
	}
	p.limit = limit
	return p, true
}

// joinParams is the validated parameter set of a /join or /explain
// request — the canonical form behind the join cache key.
type joinParams struct {
	eR, eS       *Entry
	nameR, nameS string
	pred         multistep.Predicate
	workers      int
	// limit caps the response pairs, at most MaxJoinPairs (the default).
	// The join is computed at this limit; the limit is excluded from the
	// cache key, because a cached answer serves every limit it reaches
	// (every shorter limit's answer is its sorted prefix).
	limit int
}

// parseJoin validates a relation-pair request; withLimit selects whether
// the limit parameter applies.
func (s *Server) parseJoin(w http.ResponseWriter, q url.Values, withLimit bool) (*joinParams, bool) {
	p := &joinParams{limit: -1}
	// Joins fail closed: a degraded join silently missing a tile pair's
	// share of the response set is indistinguishable from a correct
	// smaller answer, so the parameter is rejected rather than ignored.
	if flagParam(q, "partial") {
		writeError(w, http.StatusBadRequest, "parameter %q is not supported on joins: joins fail closed", "partial")
		return nil, false
	}
	var ok bool
	if p.eR, p.nameR, ok = s.relParam(w, q, "r"); !ok {
		return nil, false
	}
	if p.eS, p.nameS, ok = s.relParam(w, q, "s"); !ok {
		return nil, false
	}
	if p.eR.Sh.Fingerprint() != p.eS.Sh.Fingerprint() {
		writeJSON(w, http.StatusConflict, errorBody{
			Error: fmt.Sprintf(
				"relations %q and %q were preprocessed under different configurations", p.nameR, p.nameS),
			RFingerprint: fingerprintString(p.eR.Sh.Fingerprint()),
			SFingerprint: fingerprintString(p.eS.Sh.Fingerprint()),
		})
		return nil, false
	}
	if p.pred, ok = predicateParam(w, q); !ok {
		return nil, false
	}
	if withLimit {
		limit, ok := limitParam(w, q, s.MaxJoinPairs)
		if !ok {
			return nil, false
		}
		if limit > s.MaxJoinPairs {
			limit = s.MaxJoinPairs
		}
		p.limit = limit
	}
	workers, ok := intParam(w, q, "workers", 0)
	if !ok {
		return nil, false
	}
	// Clamp the per-request worker count: an unauthenticated parameter
	// must not be able to allocate per-worker state without bound.
	if maxWorkers := 4 * runtime.GOMAXPROCS(0); workers > maxWorkers {
		workers = maxWorkers
	}
	p.workers = workers
	return p, true
}

// entryScope is the cache-key scope of one catalog entry: name,
// generation and preprocessing fingerprint. The generation makes
// swapping a relation (re-Add under the same name) invalidate every
// cached response involving the old entry even when the new build has
// the same configuration fingerprint; the fingerprint documents the
// configuration identity that joins additionally require. Catalog.Add
// computes it once per registration (Entry.scope).
func entryScope(name string, gen, fp uint64) string {
	return fmt.Sprintf("%s#%d@%016x", name, gen, fp)
}

// appendFloat appends a float for a cache key in shortest round-trip
// notation (injective over float64).
func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// appendPoint appends "x,y".
func appendPoint(b []byte, x, y float64) []byte {
	return appendFloat(append(appendFloat(b, x), ','), y)
}

// cacheKey is the normalized whole-response key of a single-relation
// request: entry scope, target geometry, predicate and the partial flag.
// The limit is excluded by design (limit-insensitive canonical form).
func (p *queryParams) cacheKey() string {
	var buf [160]byte
	b := append(append(buf[:0], "q|"...), p.e.scope...)
	switch p.kind {
	case kindWindow:
		b = appendPoint(append(appendPoint(append(b, "|w|"...), p.win.MinX, p.win.MinY), ','), p.win.MaxX, p.win.MaxY)
	case kindPoint:
		b = appendPoint(append(b, "|p|"...), p.pt.X, p.pt.Y)
	case kindNearest:
		b = appendPoint(append(b, "|n|"...), p.pt.X, p.pt.Y)
		b = strconv.AppendInt(append(b, "|k"...), int64(p.k), 10)
		return string(strconv.AppendBool(append(b, "|pt"...), p.partial))
	}
	b = append(append(b, '|'), p.pred.String()...)
	return string(strconv.AppendBool(append(b, "|pt"...), p.partial))
}

// cacheKey is the normalized whole-response key of a join request:
// both entry scopes, predicate and requested workers. The limit is
// excluded (limit-insensitive canonical form); the workers parameter is
// included because the plan echo depends on it.
func (p *joinParams) cacheKey() string {
	var buf [160]byte
	b := append(append(buf[:0], "j|"...), p.eR.scope...)
	b = append(append(append(append(b, '|'), p.eS.scope...), '|'), p.pred.String()...)
	return string(strconv.AppendInt(append(b, "|w"...), int64(p.workers), 10))
}
