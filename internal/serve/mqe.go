package serve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"unsafe"

	"spatialjoin/internal/hist"
	"spatialjoin/internal/mqe"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/procinfo"
	"spatialjoin/internal/resilience"
	"spatialjoin/internal/resilience/fault"
	"spatialjoin/internal/shard"
)

// Multi-query execution (DESIGN.md §12). Every query request runs
// through a canonical execution path: the validated parameters build a
// normalized, limit-insensitive key; identical concurrent requests
// coalesce into a single execution (mqe.Group); and completed canonical
// results live in one byte-bounded LRU (mqe.Cache) shared between
// whole responses and per-tile sub-query results. A canonical result
// serves every request whose limit it reaches. Each response is then
// derived from the canonical result per request — sorted-prefix limit,
// recomputed truncation — so cached, coalesced and solo runs are
// byte-identical up to the cached/coalesced markers.

// queryCanonical is the cached canonical result of a single-relation
// request: the uncapped merged answer plus the plan echo. Derivations
// only read it (slices are shared between concurrent responses).
// Degraded results — partial=1 answers that lost tiles — flow through
// the same struct but are never stored in the cache: the missing tiles
// may heal, and a cached degraded answer would outlive the failure.
type queryCanonical struct {
	IDs       []int32
	Neighbors []multistep.Neighbor
	Stats     shard.QueryStats
	Plan      planEcho
	Degraded  bool
	Failed    []shard.TileFailure
}

// joinCanonical is the cached canonical result of a join request: the
// sorted response-set prefix at the limit of the request that computed
// it (a shorter limit's answer is a prefix of it) plus what /join shows
// of the rest: the aggregated stats, the sub-join count and the plan
// echo. The per-tile-pair breakdown is not kept.
type joinCanonical struct {
	Pairs    []multistep.Pair
	Stats    multistep.Stats
	SubJoins int
	Plan     planEcho
}

// canonical is a cached canonical result: its charged size in the LRU,
// whether it may be stored there at all, and its reach — the largest
// limit it answers: the number of results it holds, or math.MaxInt64
// when it holds them all. A request reads a result only if it reaches
// the request's limit, and a result never replaces one of longer reach.
type canonical interface {
	size() int64
	storable() bool
	reach() int64
}

// entryOverhead is the assumed fixed footprint of one cache entry
// (key, struct headers, LRU bookkeeping) on top of its slices.
const entryOverhead = 256

func (c *queryCanonical) size() int64 {
	return entryOverhead + 4*int64(len(c.IDs)) + 16*int64(len(c.Neighbors)) + 96*int64(len(c.Stats.Tiles))
}

// size charges a join entry its struct and its pairs' backing array.
func (c *joinCanonical) size() int64 {
	return entryOverhead + int64(unsafe.Sizeof(*c)) + int64(unsafe.Sizeof(multistep.Pair{}))*int64(cap(c.Pairs))
}

func (c *queryCanonical) storable() bool { return !c.Degraded }

func (c *joinCanonical) storable() bool { return true }

// reach: a query result is computed uncapped.
func (c *queryCanonical) reach() int64 { return math.MaxInt64 }

func (c *joinCanonical) reach() int64 {
	if n := int64(len(c.Pairs)); n < c.Stats.ResultPairs {
		return n
	}
	return math.MaxInt64
}

func queryTileSize(r shard.QueryTileResult) int64 {
	return entryOverhead + 4*int64(len(r.IDs)) + 16*int64(len(r.Neighbors))
}

// init lazily builds the multi-query execution state from the
// configuration fields; Handler calls it before serving.
func (s *Server) init() {
	s.initOnce.Do(func() {
		s.cache = mqe.NewCache(s.CacheBytes)
		s.metrics = make(map[string]*endpointTally)
		if s.MaxInFlight > 0 {
			s.limiter = resilience.NewLimiter(s.MaxInFlight, s.MaxQueue, s.QueueWait)
		}
	})
}

// queryTileAdapter scopes the shared LRU to one entry's per-tile
// sub-query results: its keys are "tq|" and the entry's scope.
type queryTileAdapter struct {
	c     *mqe.Cache
	scope string
}

// key spells a tile-cache key out: "tq|", the adapter's scope, every
// other field as an integer (a float by its bits), and last the
// predicate, the one field that could hold the separator — so two keys
// of a scope are equal exactly when their structs are (0 and -0 aside,
// which miss).
func (a queryTileAdapter) key(k shard.QueryTileKey) string {
	var buf [192]byte
	b := append(append(buf[:0], "tq|"...), a.scope...)
	for _, n := range [...]uint64{uint64(k.Tile), uint64(k.K), bit(k.Nearest), k.CfgFP,
		math.Float64bits(k.MinX), math.Float64bits(k.MinY), math.Float64bits(k.MaxX), math.Float64bits(k.MaxY)} {
		b = strconv.AppendUint(append(b, '|'), n, 36)
	}
	return string(append(append(b, '|'), k.Pred...))
}

func bit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

func (a queryTileAdapter) GetQueryTile(k shard.QueryTileKey) (shard.QueryTileResult, bool) {
	v, ok := a.c.Get(a.key(k))
	if !ok {
		return shard.QueryTileResult{}, false
	}
	return v.(shard.QueryTileResult), true
}

func (a queryTileAdapter) PutQueryTile(k shard.QueryTileKey, r shard.QueryTileResult) {
	a.c.Put(a.key(k), r, queryTileSize(r))
}

// queryTileCache returns the per-tile sub-result cache for one entry,
// or nil (cache disabled). The typed-nil trap is why this returns the
// interface only when a real adapter backs it.
func (s *Server) queryTileCache(p *queryParams) shard.QueryTileCache {
	if s.cache == nil {
		return nil
	}
	return queryTileAdapter{c: s.cache, scope: p.e.scope}
}

// runCanonical serves a request for limit results (-1: all) through the
// canonical path: LRU lookup, single-flight coalescing, canonical
// execution, and a store of the result unless it is not storable or the
// cache holds one of longer reach. cached and coalesced report how the
// result was obtained.
func runCanonical[P interface{ cacheKey() string }, C canonical](ctx context.Context, s *Server, p P, limit int,
	exec func(context.Context, P) (C, error)) (c C, cached, coalesced bool, err error) {
	key := p.cacheKey()
	if v, ok := s.cache.GetRanked(key, int64(limit)); ok {
		return v.(C), true, false, nil
	}
	run := func() (C, error) {
		c, err := exec(ctx, p)
		logIncident(err)
		if err == nil && c.storable() {
			s.cache.PutRanked(key, c, c.size(), c.reach())
		}
		return c, err
	}
	v, coalesced, err := s.flight.Do(key, func() (any, error) { return run() })
	if err == nil {
		if c = v.(C); c.reach() >= int64(limit) {
			return c, false, coalesced, nil
		}
		// The leader ran at a smaller limit: compute ours alone.
		c, err = run()
		return c, false, false, err
	}
	// A coalesced leader's client may disconnect — or its server-side
	// deadline may fire — while this request is still live: rerun solo on
	// our own context.
	if coalesced && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) && ctx.Err() == nil {
		c, err = run()
		return c, false, err == nil, err
	}
	return c, false, false, err
}

// execQuery is the canonical single-relation execution: uncapped (the
// limit is applied per response as a sorted prefix), per-tile cached.
func (s *Server) execQuery(ctx context.Context, p *queryParams) (*queryCanonical, error) {
	var ex multistep.Explain
	var opts []multistep.Option
	switch p.kind {
	case kindWindow:
		opts = append(opts, multistep.ForWindow(p.win))
	case kindPoint:
		opts = append(opts, multistep.ForPoint(p.pt))
	case kindNearest:
		opts = append(opts, multistep.ForNearest(p.pt, p.k))
	}
	if p.kind != kindNearest {
		opts = append(opts, multistep.WithPredicate(p.pred), multistep.WithExplain(&ex))
	}
	if p.partial {
		opts = append(opts, multistep.WithPartialResults())
	}
	res, err := shard.QueryCached(ctx, p.e.Sh, s.queryTileCache(p), opts...)
	if err != nil {
		return nil, err
	}
	return &queryCanonical{
		IDs: res.IDs, Neighbors: res.Neighbors, Stats: res.Stats, Plan: echoOf(ex.Plan),
		Degraded: res.Degraded, Failed: res.Failed,
	}, nil
}

// execJoin is the canonical join execution: capped at the request's
// limit (every shorter limit's answer is a prefix of it).
func (s *Server) execJoin(ctx context.Context, p *joinParams) (*joinCanonical, error) {
	var ex multistep.Explain
	opts := []multistep.Option{
		multistep.WithPredicate(p.pred),
		multistep.WithWorkers(p.workers),
		multistep.WithLimit(p.limit),
		multistep.WithExplain(&ex),
	}
	pairs, st, err := shard.Join(ctx, p.eR.Sh, p.eS.Sh, opts...)
	if err != nil {
		return nil, err
	}
	return &joinCanonical{Pairs: pairs, Stats: st.Stats, SubJoins: st.SubJoins, Plan: echoOf(ex.Plan)}, nil
}

// serveStats answers GET /stats: the shared cache counters, the
// single-flight coalesce count, the admission controller's gauges,
// per-endpoint request counts with latency percentiles and resilience
// outcomes, any quarantined relations, any armed fault injections, and
// the process's resident set size (the figure the load harness samples
// during a run).
type serveStats struct {
	Cache       mqe.CacheStats           `json:"cache"`
	Coalesced   int64                    `json:"coalesced"`
	Admission   resilience.LimiterStats  `json:"admission"`
	Endpoints   map[string]endpointStats `json:"endpoints"`
	Quarantined map[string]string        `json:"quarantined,omitempty"`
	Faults      []fault.InjectionStats   `json:"faults,omitempty"`
	Process     processStats             `json:"process"`
}

// endpointStats is one endpoint's row in /stats. Latencies come from a
// fixed-bucket log-linear histogram (internal/hist): ≤ 2.4% relative
// quantile error, constant memory, lock-free recording. InFlight is an
// instantaneous gauge; Shed, TimedOut, Degraded and Panics count the
// endpoint's resilience outcomes (shed requests are counted under
// Requests too, but not under Latency-observed successes).
type endpointStats struct {
	Requests int64         `json:"requests"`
	InFlight int64         `json:"in_flight"`
	Shed     int64         `json:"shed"`
	TimedOut int64         `json:"timed_out"`
	Degraded int64         `json:"degraded"`
	Panics   int64         `json:"panics"`
	Latency  hist.Snapshot `json:"latency_ms"`
}

type processStats struct {
	RSSBytes     int64 `json:"rss_bytes"`
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	eps := make(map[string]endpointStats, len(s.metrics))
	for name, t := range s.metrics {
		eps[name] = endpointStats{
			Requests: t.requests.Load(),
			InFlight: t.inflight.Load(),
			Shed:     t.shed.Load(),
			TimedOut: t.timedOut.Load(),
			Degraded: t.degraded.Load(),
			Panics:   t.panics.Load(),
			Latency:  t.latency.Snapshot(),
		}
	}
	writeJSON(w, http.StatusOK, serveStats{
		Cache:       s.cache.Stats(),
		Coalesced:   s.flight.Coalesced(),
		Admission:   s.limiter.Stats(),
		Endpoints:   eps,
		Quarantined: s.cat.QuarantinedAll(),
		Faults:      fault.Stats(),
		Process:     processStats{RSSBytes: procinfo.CurrentRSS(), PeakRSSBytes: procinfo.PeakRSS()},
	})
}
