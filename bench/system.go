package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/loadgen"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/serve"
	"spatialjoin/internal/shard"
)

// bench carries one run's state.
type bench struct {
	opt     options
	sz      sizes
	rec     *record
	scratch string
	procs   int

	spec loadgen.Spec
	cfg  multistep.Config
}

// system is one set-up instance of the system under test: both
// relations opened from their stores, registered in a catalog, behind a
// server. The HTTP workloads talk to it over a loopback socket.
type system struct {
	r, s   *shard.Sharded
	relR   string
	relS   string
	cat    *serve.Catalog
	srv    *serve.Server
	h      http.Handler
	ts     *httptest.Server
	client *http.Client
}

func (s *system) close() {
	if s.ts != nil {
		s.client.CloseIdleConnections()
		s.ts.Close()
	}
}

// splitmix derives independent sub-seeds from the run seed.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func subSeed(seed int64, stream uint64) int64 {
	return int64(splitmix(uint64(seed)*0x9E3779B97F4A7C15+stream) >> 1)
}

// initSpec resolves the dataset: the standard scale-factor spec with
// both sides' generation seeds derived from the run seed.
func (b *bench) initSpec() error {
	spec, err := loadgen.For(b.sz.sf)
	if err != nil {
		return err
	}
	spec.SeedR, spec.SeedS = subSeed(b.opt.seed, 1), subSeed(b.opt.seed, 2)
	b.spec, b.cfg = spec, multistep.DefaultConfig()
	// The default 128 KiB page buffer is the paper's, sized for its
	// 130 000-object relations; a tile of this dataset has a dozen pages
	// and would never miss. A buffer scaled down with the data keeps the
	// storage layer's counters (page accesses, hit ratio) alive.
	b.cfg.BufferBytes = b.sz.bufferBytes
	b.rec.Objects = spec.Objects
	return nil
}

func (b *bench) storeDir(side string) string { return filepath.Join(b.scratch, side+".store") }

// buildStores preprocesses both relations into sharded store
// directories — the single-threaded preprocessing a deployment runs
// once.
func (b *bench) buildStores() error {
	for _, side := range []string{"R", "S"} {
		mc, err := b.spec.MapConfig(side)
		if err != nil {
			return err
		}
		dir := b.storeDir(side)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if _, err := loadgen.BuildStore(dir, b.spec.RelationName(side), mc, b.sz.tiles, b.cfg); err != nil {
			return fmt.Errorf("build %s: %w", side, err)
		}
	}
	return nil
}

// open brings the system up from the built stores: shard.Open on both
// sides, the catalog, the server, and for the HTTP workloads a loopback
// listener. Client connections never exceed the processor count.
func (b *bench) open() (*system, error) {
	cat := serve.NewCatalog()
	sys := &system{cat: cat, relR: b.spec.RelationName("R"), relS: b.spec.RelationName("S")}
	for _, side := range []string{"R", "S"} {
		if err := cat.LoadDir(b.spec.RelationName(side), b.storeDir(side), b.cfg); err != nil {
			return nil, err
		}
	}
	eR, _ := cat.Get(sys.relR)
	eS, _ := cat.Get(sys.relS)
	sys.r, sys.s = eR.Sh, eS.Sh
	sys.srv = serve.NewServer(cat)
	if b.opt.workload == wServeScan {
		sys.srv.CacheBytes = b.sz.scanCacheBytes
	}
	sys.h = sys.srv.Handler()
	if b.opt.workload != wJoinIntersects {
		sys.ts = httptest.NewServer(sys.h)
		sys.client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        b.procs,
			MaxIdleConnsPerHost: b.procs,
			MaxConnsPerHost:     b.procs,
			IdleConnTimeout:     time.Minute,
		}}
	}
	return sys, nil
}

// get performs one request and returns the body.
func (s *system) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.ts.URL + path)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, body)
	}
	return body, nil
}

// query is one single-relation request, kept in parsed form so that the
// oracle and the stage replay can run it without the server.
type query struct {
	name  string // flight shape: point_center … window_high
	class string // point, nearest or window
	path  string
	win   geom.Rect  // window target
	pt    geom.Point // point and nearest target
	eps   float64
	k     int // nearest
	limit int // -1: none
}

// queryShapes are the eight non-join shapes of the standard flight, in
// flight order. Their geometry comes from loadgen.NewFlight; the
// benchmark only moves them.
func queryShapes(spec loadgen.Spec) []*loadgen.Query {
	var out []*loadgen.Query
	for _, q := range loadgen.NewFlight(spec).Queries {
		if q.Class != "join" {
			out = append(out, q)
		}
	}
	return out
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// recentre moves a flight shape so that its target is centred at
// (cx, cy) and returns it in parsed form.
func recentre(shape *loadgen.Query, cx, cy float64) (query, error) {
	u, err := url.Parse(shape.Path)
	if err != nil {
		return query{}, err
	}
	v := u.Query()
	q := query{name: shape.Name, class: shape.Class, limit: -1}
	num := func(key string) float64 {
		f, perr := strconv.ParseFloat(v.Get(key), 64)
		if perr != nil && err == nil {
			err = fmt.Errorf("shape %s: parameter %s: %w", shape.Name, key, perr)
		}
		return f
	}
	if shape.Class == "window" {
		hx, hy := (num("maxx")-num("minx"))/2, (num("maxy")-num("miny"))/2
		q.win = geom.Rect{MinX: cx - hx, MinY: cy - hy, MaxX: cx + hx, MaxY: cy + hy}
		v.Set("minx", fmtFloat(q.win.MinX))
		v.Set("miny", fmtFloat(q.win.MinY))
		v.Set("maxx", fmtFloat(q.win.MaxX))
		v.Set("maxy", fmtFloat(q.win.MaxY))
	} else {
		q.pt = geom.Point{X: cx, Y: cy}
		v.Set("x", fmtFloat(cx))
		v.Set("y", fmtFloat(cy))
	}
	if v.Has("epsilon") {
		q.eps = num("epsilon")
	}
	if v.Has("k") {
		q.k = int(num("k"))
	}
	if v.Has("limit") {
		q.limit = int(num("limit"))
	}
	q.path = u.Path + "?" + v.Encode()
	return q, err
}

// queryStream yields never-repeating queries: the eight shapes in
// rotation, each at a seeded uniform position. The shape mix is the
// same for every seed; only the positions move.
type queryStream struct {
	shapes []*loadgen.Query
	rng    *rand.Rand
	ext    float64
	n      int
}

func newQueryStream(spec loadgen.Spec, seed int64) *queryStream {
	return &queryStream{shapes: queryShapes(spec), rng: rand.New(rand.NewSource(seed)), ext: spec.Extent}
}

func (qs *queryStream) next() query {
	shape := qs.shapes[qs.n%len(qs.shapes)]
	qs.n++
	// Targets stay 10 % clear of the territory's edge so that a shape
	// costs about the same wherever it lands.
	cx := (0.1 + 0.8*qs.rng.Float64()) * qs.ext
	cy := (0.1 + 0.8*qs.rng.Float64()) * qs.ext
	q, err := recentre(shape, cx, cy)
	if err != nil {
		panic(err) // the flight's own paths always parse
	}
	return q
}

// cell is the dataset's mean object diameter (see loadgen.NewFlight).
func (b *bench) cell() float64 {
	k := 1
	for (k+1)*(k+1) <= b.spec.Objects {
		k++
	}
	return b.spec.Extent / float64(k)
}

// withinEps is the i-th distance bound of the join_within stream:
// cell·(1 + 0.01·u) with u seeded uniform in [-1, 1]. Every request has
// its own ε, so none is answered from the result or tile cache.
func withinEps(cell float64, rng *rand.Rand) float64 {
	return cell * (1 + 0.01*(2*rng.Float64()-1))
}

func (sys *system) withinPath(eps float64) string {
	v := url.Values{}
	v.Set("r", sys.relR)
	v.Set("s", sys.relS)
	v.Set("predicate", "within")
	v.Set("epsilon", fmtFloat(eps))
	v.Set("limit", strconv.Itoa(withinLimit))
	return "/join?" + v.Encode()
}

// withinLimit bounds the inline pairs of a join_within response.
const withinLimit = 100

// joinRequest is one of the flight's four /join requests. eps is the
// within-distance bound, 0 for the intersection join, and -1 where the
// oracle has no answer (the inclusion join).
type joinRequest struct {
	path string
	eps  float64
}

func joinRequests(b *bench, sys *system) []joinRequest {
	var out []joinRequest
	for _, q := range loadgen.NewFlight(b.spec).Queries {
		if q.Class != "join" {
			continue
		}
		j := joinRequest{path: q.Path, eps: -1}
		if u, err := url.Parse(q.Path); err == nil {
			switch v := u.Query(); v.Get("predicate") {
			case "intersects":
				j.eps = 0
			case "within":
				j.eps, _ = strconv.ParseFloat(v.Get("epsilon"), 64)
			}
		}
		out = append(out, j)
	}
	return out
}

// statsBody is the sliver of GET /stats the benchmark reads.
type statsBody struct {
	Cache struct {
		MaxBytes  int64 `json:"maxBytes"`
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
}

func serverStats(sys *system) (statsBody, error) {
	var st statsBody
	body, err := sys.get("/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}
