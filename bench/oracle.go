package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/shard"
)

// oracle holds the brute-force answers a run is checked against. It is
// computed during set-up, outside every timed interval, from raw
// geometry only: a nested-loop MBR prefilter followed by
// geom.Polygon.DistToPolygon, and linear scans for the queries.
//
// One class of wrong answer is expected rather than failed: a pair or
// object that the step-2 filter declares a hit although the regions are
// disjoint. approx.MaxEnclosedRect returns, for a few objects per
// thousand, a rectangle that is not enclosed, so the system reports one
// to three such pairs per 7 000; this change may not touch the system,
// and a check that fails on every operation measures nothing. The
// oracle therefore marks exactly the filter's claimed hits as optional
// members of an answer (the planner may switch the filter off, and then
// they are absent), and the traced pass counts them, so the defect
// stays visible as approx.false_hits_per_op until it is fixed. A
// missing answer, or an extra one the filter does not claim, fails.
//
// A second, smaller allowance covers the distance joins:
// trstar.WithinDistance overestimates the distance of about 0.2 % of
// object pairs by up to 2e-6 (the quadratic and plane-sweep engines and
// DistToPolygon agree to 1e-17), so a pair whose distance is within
// band below ε may be missing. band is 0.5 % of an object diameter,
// eight times the largest error seen; about 75 of 22 000 pairs per
// join are inside it.
type oracle struct {
	r, s   []*geom.Polygon // by global object ID
	ra, sa []*approx.Set   // the system's approximations of the same objects
	filter approx.FilterConfig
	// near lists every pair whose MBRs are within epsMax of each other,
	// sorted by (A, B), with the exact distance of the regions (0 for
	// intersecting pairs).
	near   []nearPair
	epsMax float64
	band   float64
}

type nearPair struct {
	a, b int32
	d    float64
}

// objects returns a sharded relation's geometry and approximations
// indexed by global ID.
func objects(sh *shard.Sharded) ([]*geom.Polygon, []*approx.Set) {
	polys := make([]*geom.Polygon, sh.Objects())
	sets := make([]*approx.Set, sh.Objects())
	for _, t := range sh.Tiles {
		for i, o := range t.Rel.Objects {
			polys[t.Global[i]], sets[t.Global[i]] = o.Poly, o.Approx
		}
	}
	return polys, sets
}

// newOracle computes the answers for relations r and s. cell is the
// dataset's object diameter: distance joins up to 1.011 cells are
// covered.
func newOracle(r, s *shard.Sharded, filter approx.FilterConfig, cell float64) *oracle {
	o := &oracle{filter: filter, epsMax: 1.011 * cell, band: 0.005 * cell}
	epsMax := o.epsMax
	o.r, o.ra = objects(r)
	o.s, o.sa = objects(s)
	sb := make([]geom.Rect, len(o.s))
	for j, q := range o.s {
		sb[j] = q.Bounds()
	}
	for i, p := range o.r {
		grown := p.Bounds().Expand(epsMax)
		for j, q := range o.s {
			if grown.Intersects(sb[j]) {
				o.near = append(o.near, nearPair{int32(i), int32(j), p.DistToPolygon(q)})
			}
		}
	}
	return o
}

// pairHash is an order-independent hash of a pair set: the sum of a
// per-pair mix, so any permutation of the same pairs hashes equally.
func pairHash(ps []multistep.Pair) uint64 {
	var h uint64
	for _, p := range ps {
		h += splitmix(uint64(uint32(p.A))<<32 | uint64(uint32(p.B)))
	}
	return h
}

// answer is an expected response in response order. optional marks the
// members that may be absent (see oracle); required counts the others,
// falseHits the members only the filter claims.
type answer[T comparable] struct {
	items     []T
	optional  []bool
	required  int
	falseHits int
}

func (a *answer[T]) add(item T, falseHit, inBand bool) {
	a.items, a.optional = append(a.items, item), append(a.optional, falseHit || inBand)
	switch {
	case falseHit:
		a.falseHits++
	case !inBand:
		a.required++
	}
}

// match checks a response's inline members against the answer: every
// required member up to the limit present, nothing present that is not
// in the answer, order kept. limit < 0 means the response is complete.
func (a *answer[T]) match(got []T, limit int) error {
	k := 0
	for i, want := range a.items {
		if k < len(got) && got[k] == want {
			k++
			continue
		}
		if k == len(got) && limit >= 0 && k >= limit {
			break
		}
		if !a.optional[i] {
			return fmt.Errorf("member %v is missing", want)
		}
	}
	if k != len(got) {
		return fmt.Errorf("member %v is not in the brute-force answer", got[k])
	}
	return nil
}

// join returns the expected response of a within-ε join (ε = 0 is the
// intersection join) in (A, B) order.
func (o *oracle) join(eps float64) *answer[multistep.Pair] {
	if eps > o.epsMax {
		panic(fmt.Sprintf("oracle asked for ε %g beyond its %g", eps, o.epsMax))
	}
	ans := &answer[multistep.Pair]{}
	for _, np := range o.near {
		falseHit := false
		if np.d > eps {
			a, b := o.ra[np.a], o.sa[np.b]
			if !a.MBR.Expand(eps).Intersects(b.MBR) {
				continue // never a candidate, so never classified
			}
			cl := o.filter.Classify(a, b)
			if eps > 0 {
				cl = o.filter.ClassifyWithin(a, b, eps)
			}
			if cl != approx.Hit {
				continue
			}
			falseHit = true
		}
		ans.add(multistep.Pair{A: np.a, B: np.b}, falseHit, eps > 0 && np.d > eps-o.band && np.d <= eps)
	}
	return ans
}

// joinBody is the sliver of a /join response the checks read.
type joinBody struct {
	Cached bool             `json:"cached"`
	Pairs  []multistep.Pair `json:"pairs"`
	Stats  struct {
		ResultPairs int64
	} `json:"stats"`
}

// checkJoinBody verifies a /join response against the oracle: the full
// cardinality and the inline sorted prefix. wantMiss additionally
// requires that the response was computed, not served from the cache.
func (o *oracle) checkJoinBody(body []byte, eps float64, limit int, wantMiss bool) error {
	var jb joinBody
	if err := json.Unmarshal(body, &jb); err != nil {
		return fmt.Errorf("bad join body: %w", err)
	}
	if wantMiss && jb.Cached {
		return fmt.Errorf("join with ε=%g was served from the cache", eps)
	}
	ans := o.join(eps)
	if n := jb.Stats.ResultPairs; n < int64(ans.required) || n > int64(len(ans.items)) {
		return fmt.Errorf("join ε=%g: %d pairs, oracle %d to %d", eps, n, ans.required, len(ans.items))
	}
	if err := ans.match(jb.Pairs, limit); err != nil {
		return fmt.Errorf("join ε=%g: %w", eps, err)
	}
	return nil
}

// queryBody is the sliver of a /window, /point or /nearest response the
// checks read.
type queryBody struct {
	IDs       []int32              `json:"ids"`
	Neighbors []multistep.Neighbor `json:"neighbors"`
}

// checkQueryBody verifies a single-relation response against a linear
// scan of relation R.
func (o *oracle) checkQueryBody(q query, body []byte) error {
	var qb queryBody
	if err := json.Unmarshal(body, &qb); err != nil {
		return fmt.Errorf("%s: bad body: %w", q.name, err)
	}
	if q.class == "nearest" {
		want := o.nearest(q.pt, q.k)
		if !slices.Equal(qb.Neighbors, want) {
			return fmt.Errorf("%s at %v: neighbours differ from the linear scan", q.name, q.pt)
		}
		return nil
	}
	if err := o.scan(q).match(qb.IDs, q.limit); err != nil {
		return fmt.Errorf("%s: %w", q.path, err)
	}
	return nil
}

// scan answers a window or point query by testing every object, in
// ascending global ID order.
func (o *oracle) scan(q query) *answer[int32] {
	ans := &answer[int32]{}
	target := q.win
	if q.class != "window" {
		target = geom.Rect{MinX: q.pt.X, MinY: q.pt.Y, MaxX: q.pt.X, MaxY: q.pt.Y}
	}
	var rectPoly *geom.Polygon
	if q.class == "window" && q.eps == 0 {
		c := q.win.Corners()
		rectPoly = geom.NewPolygon(c[:])
	}
	for i, p := range o.r {
		var hit bool
		switch {
		case rectPoly != nil:
			hit = p.Bounds().Intersects(q.win) && p.Intersects(rectPoly)
		case q.class == "window":
			hit = p.DistToRect(q.win) <= q.eps
		case q.eps == 0:
			hit = p.Bounds().ContainsPoint(q.pt) && p.ContainsPoint(q.pt)
		default:
			hit = p.DistToPoint(q.pt) <= q.eps
		}
		// ε-range queries skip the filter; the others classify every
		// object whose MBR meets the target.
		falseHit := !hit && q.eps == 0 && o.ra[i].MBR.Intersects(target) &&
			o.filter.ClassifyWindow(o.ra[i], target) == approx.Hit
		if hit || falseHit {
			ans.add(int32(i), falseHit, false)
		}
	}
	return ans
}

// nearest answers a k-nearest query by sorting every object by exact
// region distance, ties by ID.
func (o *oracle) nearest(pt geom.Point, k int) []multistep.Neighbor {
	all := make([]multistep.Neighbor, len(o.r))
	for i, p := range o.r {
		all[i] = multistep.Neighbor{ID: int32(i), Dist: p.DistToPoint(pt)}
	}
	slices.SortFunc(all, func(a, b multistep.Neighbor) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		default:
			return int(a.ID - b.ID)
		}
	})
	return all[:min(k, len(all))]
}

// The marker lines a cached or coalesced response carries in front of
// the solo-run body (see serve.windowResponse).
var markerLines = [][]byte{
	[]byte("  \"cached\": true,\n"),
	[]byte("  \"coalesced\": true,\n"),
}

// bodyHash hashes a response body modulo the cached/coalesced marker
// lines: a repeated request must hash exactly as its first response.
func bodyHash(body []byte) uint64 {
	h := fnv.New64a()
	if bytes.HasPrefix(body, []byte("{\n")) {
		rest := body[2:]
		for stripped := true; stripped; {
			stripped = false
			for _, m := range markerLines {
				if bytes.HasPrefix(rest, m) {
					rest, stripped = rest[len(m):], true
				}
			}
		}
		h.Write(body[:2])
		h.Write(rest)
	} else {
		h.Write(body)
	}
	return h.Sum64()
}

var cachedPrefix = append([]byte("{\n"), markerLines[0]...)

// isCached reports whether a response body leads with the cached marker.
func isCached(body []byte) bool { return bytes.HasPrefix(body, cachedPrefix) }
