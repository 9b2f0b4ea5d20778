package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
)

// Query is one named, fully parameterized request of the flight. The
// parameters are fixed per scale factor, so a query's response
// cardinality is a deterministic property of the dataset — Calibrate
// records it once and every later response is checked against it.
type Query struct {
	// Name identifies the query in errors ("join_intersects",
	// "window_low", …).
	Name string
	// Class is the response shape: join, window, point or nearest.
	Class string
	// Path is the request path and query string, relative to the server
	// base URL.
	Path string
	// Expected is the calibrated response cardinality; -1 before
	// Calibrate.
	Expected int64
}

// Flight is the fixed query set of a scale factor, Wisconsin-style:
// every query is named, parameterized by the scale factor only, and
// individually checkable. Queries are ordered cheapest-first: point,
// nearest and window lookups, then the joins. The repository
// benchmark's serve workloads draw their requests from it.
type Flight struct {
	Queries []*Query
}

// NewFlight builds the standard 12-query flight over the two relations
// of spec (which must be registered on the server under
// spec.RelationName("R") / ("S")).
//
// Geometric parameters derive from the dataset's invariants: the mean
// object diameter is one grid cell ≈ extent/√objects = 1/√SFObjects —
// CONSTANT across scale factors by the constant-density design — so
// epsilons and window sides expressed in cells keep each query's
// per-object selectivity comparable at every SF.
func NewFlight(spec Spec) *Flight {
	ext := spec.Extent
	cell := ext / float64(intSqrt(spec.Objects))
	c := 0.5 * ext
	relR, relS := spec.RelationName("R"), spec.RelationName("S")

	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	window := func(cx, cy, half float64, extra url.Values) string {
		v := url.Values{}
		v.Set("rel", relR)
		v.Set("minx", num(cx-half))
		v.Set("miny", num(cy-half))
		v.Set("maxx", num(cx+half))
		v.Set("maxy", num(cy+half))
		for k, vs := range extra {
			v[k] = vs
		}
		return "/window?" + v.Encode()
	}
	point := func(x, y float64, extra url.Values) string {
		v := url.Values{}
		v.Set("rel", relR)
		v.Set("x", num(x))
		v.Set("y", num(y))
		for k, vs := range extra {
			v[k] = vs
		}
		return "/point?" + v.Encode()
	}
	nearest := func(x, y float64, k int) string {
		v := url.Values{}
		v.Set("rel", relR)
		v.Set("x", num(x))
		v.Set("y", num(y))
		v.Set("k", strconv.Itoa(k))
		return "/nearest?" + v.Encode()
	}
	join := func(pred string, epsilon float64) string {
		v := url.Values{}
		v.Set("r", relR)
		v.Set("s", relS)
		v.Set("predicate", pred)
		if epsilon > 0 {
			v.Set("epsilon", num(epsilon))
		}
		// Bound the response body: the statistics report the full result
		// cardinality whatever the limit.
		v.Set("limit", "10")
		return "/join?" + v.Encode()
	}

	qs := []*Query{
		{Name: "point_center", Class: "point", Path: point(c, c, nil)},
		{Name: "point_eps", Class: "point", Path: point(c+4*cell, c-4*cell, url.Values{"epsilon": {num(cell)}})},
		{Name: "nearest_small", Class: "nearest", Path: nearest(c+8*cell, c+8*cell, 4)},
		{Name: "nearest_large", Class: "nearest", Path: nearest(c-12*cell, c-12*cell, 32)},
		{Name: "window_low", Class: "window", Path: window(c, c, 1.5*cell, nil)},
		{Name: "window_edge", Class: "window", Path: window(0.1*ext, 0.1*ext, 2*cell, nil)},
		{Name: "window_eps", Class: "window", Path: window(c-6*cell, c+6*cell, 1.5*cell, url.Values{"epsilon": {num(2 * cell)}})},
		{Name: "window_high", Class: "window", Path: window(c, c, 0.25*ext, url.Values{"limit": {"100"}})},
		{Name: "join_within_low", Class: "join", Path: join("within", 0.1*cell)},
		{Name: "join_intersects", Class: "join", Path: join("intersects", 0)},
		{Name: "join_contains", Class: "join", Path: join("contains", 0)},
		{Name: "join_within_high", Class: "join", Path: join("within", cell)},
	}
	for _, q := range qs {
		q.Expected = -1
	}
	return &Flight{Queries: qs}
}

func intSqrt(n int) int {
	k := 1
	for (k+1)*(k+1) <= n {
		k++
	}
	return k
}

// Calibrate runs every query once against the server and records its
// response cardinality as the expected value for the run. It doubles as
// the flight's smoke test: any non-200 response fails calibration.
func (f *Flight) Calibrate(ctx context.Context, client *http.Client, base string) error {
	for _, q := range f.Queries {
		card, err := fetch(ctx, client, base, q)
		if err != nil {
			return fmt.Errorf("loadgen: calibrate %s: %w", q.Name, err)
		}
		q.Expected = card
	}
	return nil
}

// The response slivers the harness parses: just enough to extract the
// deterministic cardinality of each query class. Joins report the full
// result-set size in the statistics whatever the inline limit;
// window/point responses return the (limit-truncated, but
// deterministically ordered) ID prefix; nearest returns exactly k
// neighbors.
type joinSliver struct {
	Stats struct {
		ResultPairs int64
	} `json:"stats"`
}

type windowSliver struct {
	Degraded bool    `json:"degraded"`
	IDs      []int32 `json:"ids"`
}

type nearestSliver struct {
	Degraded  bool              `json:"degraded"`
	Neighbors []json.RawMessage `json:"neighbors"`
}

type errorSliver struct {
	Error string `json:"error"`
}

// fetch issues q against base and returns the response cardinality.
// Anything but a well-formed, non-degraded 200 is an error: a shed (429),
// a server-side timeout (504) and a degraded partial answer included. So
// is, once q is calibrated, a cardinality other than the calibrated one.
func fetch(ctx context.Context, client *http.Client, base string, q *Query) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+q.Path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		return 0, fmt.Errorf("request shed (status 429)")
	case http.StatusGatewayTimeout:
		return 0, fmt.Errorf("request timed out server-side (status 504)")
	default:
		var e errorSliver
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return 0, fmt.Errorf("status %d: %s", resp.StatusCode, e.Error)
		}
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}

	var card int64
	degraded := false
	switch q.Class {
	case "join":
		var v joinSliver
		if err := json.Unmarshal(body, &v); err != nil {
			return 0, fmt.Errorf("bad join body: %w", err)
		}
		card = v.Stats.ResultPairs
	case "window", "point":
		var v windowSliver
		if err := json.Unmarshal(body, &v); err != nil {
			return 0, fmt.Errorf("bad %s body: %w", q.Class, err)
		}
		card, degraded = int64(len(v.IDs)), v.Degraded
	case "nearest":
		var v nearestSliver
		if err := json.Unmarshal(body, &v); err != nil {
			return 0, fmt.Errorf("bad nearest body: %w", err)
		}
		card, degraded = int64(len(v.Neighbors)), v.Degraded
	default:
		return 0, fmt.Errorf("unknown query class %q", q.Class)
	}
	if degraded {
		return card, fmt.Errorf("degraded response")
	}
	if q.Expected >= 0 && card != q.Expected {
		return card, fmt.Errorf("cardinality %d, expected %d", card, q.Expected)
	}
	return card, nil
}

// checkPasses is how many times each client of Check runs the whole
// flight.
const checkPasses = 3

// Check runs the calibrated flight from workers concurrent clients, each
// issuing every query checkPasses times, and returns the first request
// error or cardinality mismatch. Client w starts its passes at query w,
// so the flight's classes overlap in time.
func (f *Flight) Check(ctx context.Context, client *http.Client, base string, workers int) error {
	if workers < 1 {
		return fmt.Errorf("loadgen: check needs at least one worker (got %d)", workers)
	}
	for _, q := range f.Queries {
		if q.Expected < 0 {
			return fmt.Errorf("loadgen: check: %s is not calibrated", q.Name)
		}
	}
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range checkPasses * len(f.Queries) {
				q := f.Queries[(w+i)%len(f.Queries)]
				if _, err := fetch(ctx, client, base, q); err != nil {
					fail(fmt.Errorf("loadgen: check %s: %w", q.Name, err))
					return
				}
			}
		}()
	}
	wg.Wait()
	return context.Cause(ctx)
}
