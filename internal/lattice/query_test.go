package lattice

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"spatialjoin"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/shard"
)

// probes are the query geometry of a relation: its data space, a window
// across the middle of it, its centre, a point outside it, and a vertex
// and the MBR of its first object.
type probes struct {
	space, mid, mbr         geom.Rect
	center, outside, vertex geom.Point
}

func probesOf(polys []*geom.Polygon) probes {
	b := geom.Rect{MaxX: 1, MaxY: 1}
	p := probes{mbr: b, vertex: b.Center()}
	if len(polys) > 0 {
		b = geom.EmptyRect()
		for _, q := range polys {
			b = b.Union(q.Bounds())
		}
		p.mbr, p.vertex = polys[0].Bounds(), polys[0].Outer[0]
	}
	w, h := b.Width(), b.Height()
	p.mid = geom.Rect{MinX: b.MinX + 0.3*w, MinY: b.MinY + 0.35*h, MaxX: b.MinX + 0.6*w, MaxY: b.MinY + 0.6*h}
	p.space, p.center, p.outside = b, b.Center(), geom.Point{X: b.MaxX + 0.1*w, Y: b.MaxY + 0.05*h}
	return p
}

// target is one single-relation query and its linear-scan answer: ids
// for window, point and ε-range queries; for nearest queries the
// neighbours, and every object's distance.
type target struct {
	name    string
	opts    []multistep.Option
	ids     []int32
	limit   int
	nearest []multistep.Neighbor
	dists   []float64
}

// targets are the queries of a relation: windows across the middle and
// exactly on an MBR, points at the centre and on a vertex, ε-range
// windows and points, a limited window, nearest objects at k ∈ {1, 4, 7}
// and outside the data space, and random windows, points and nearest
// queries from a fixed seed.
func targets(polys []*geom.Polygon) []target {
	pr := probesOf(polys)
	pred := func(eps float64) multistep.Option {
		if eps == 0 {
			return multistep.WithPredicate(multistep.Intersects())
		}
		return multistep.WithPredicate(multistep.WithinDistance(eps))
	}
	window := func(name string, w geom.Rect, eps float64, limit int) target {
		return target{name: name, opts: []multistep.Option{multistep.ForWindow(w), pred(eps), multistep.WithLimit(limit)},
			limit: limit, ids: scan(polys, func(p *geom.Polygon) bool { return p.DistToRect(w) <= eps })}
	}
	point := func(name string, q geom.Point, eps float64) target {
		return target{name: name, opts: []multistep.Option{multistep.ForPoint(q), pred(eps)}, limit: -1,
			ids: scan(polys, func(p *geom.Polygon) bool {
				return eps == 0 && p.ContainsPoint(q) || eps > 0 && p.DistToPoint(q) <= eps
			})}
	}
	nearest := func(name string, q geom.Point, k int) target {
		t := target{name: name, opts: []multistep.Option{multistep.ForNearest(q, k)}, nearest: nearestScan(polys, q, k)}
		for _, p := range polys {
			t.dists = append(t.dists, p.DistToPoint(q))
		}
		return t
	}
	ts := []target{
		window("window", pr.mid, 0, -1), window("window on an MBR", pr.mbr, 0, -1),
		point("point", pr.center, 0), point("point on a vertex", pr.vertex, 0),
		window("ε-range window", pr.mid, 0.01, -1), point("ε-range point", pr.center, 0.1),
		window("window limit 3", pr.mid, 0, 3),
		nearest("nearest 1", pr.center, 1), nearest("nearest 4", pr.center, 4), nearest("nearest 7", pr.center, 7),
		nearest("nearest 4 outside", pr.outside, 4),
	}
	rng, b := rand.New(rand.NewSource(521)), pr.space
	at := func(spill float64) geom.Point {
		return geom.Point{X: b.MinX + (rng.Float64()*(1+2*spill)-spill)*b.Width(), Y: b.MinY + (rng.Float64()*(1+2*spill)-spill)*b.Height()}
	}
	for i := range 3 {
		q, ext := at(0), (0.005+0.12*rng.Float64())*b.Width()
		ts = append(ts, window(fmt.Sprint("random window ", i), geom.Rect{MinX: q.X, MinY: q.Y, MaxX: q.X + ext, MaxY: q.Y + ext}, 0, -1),
			point(fmt.Sprint("random point ", i), at(0), 0), nearest(fmt.Sprint("random nearest ", i), at(0.2), 1+rng.Intn(8)))
	}
	return ts
}

// queryResult is what one query returned.
type queryResult struct {
	ids       []int32
	neighbors []multistep.Neighbor
	stats     multistep.WindowStats
	tiles     []shard.TileQueryStats // facade only
}

// query runs a target on the R side of a dataset; a solo query gets a
// fresh session.
func (h *harness) query(t testing.TB, ds, filter, driver, store int, tg target) (queryResult, error) {
	opts := slices.Clone(tg.opts)
	r := h.rel(t, relKey{ds, filter, 0, drivers[driver][0], store})
	if driver == 0 {
		rel := r.Tiles[0].Rel
		res, err := multistep.Query(context.Background(), rel, append(opts, multistep.WithSession(rel.NewSession()))...)
		return queryResult{res.IDs, res.Neighbors, res.Stats, nil}, err
	}
	res, err := spatialjoin.Query(context.Background(), r, opts...)
	return queryResult{res.IDs, res.Neighbors, res.Stats.WindowStats, res.Stats.Tiles}, err
}

// TestQueriesMatchScans holds window, point, ε-range and nearest queries
// to the linear scans on every dataset × filter × driver × store
// (invariant 6; -short keeps the filters off and recommended). The solo
// driver answers in tree order and cuts a limit there, the facade in
// ascending IDs. Window and point queries report the statistics of the
// solo run on the built relation — on the facade with the page accesses
// of its tiles, which sum to the total and equal those of its run on the
// built tiles.
func TestQueriesMatchScans(t *testing.T) {
	residuals, decided := 0, int64(0)
	for ds, d := range theDatasets {
		for _, tg := range targets(d.r) {
			for filter := range filters {
				if testing.Short() && filter > 1 {
					continue
				}
				refs := map[int]queryResult{}
				for driver := range drivers {
					// A query reads no engine, so the plane-sweep build
					// is left to the joins.
					for store := range stores[:2] {
						name := fmt.Sprintf("%s/%s/filter %s/tiles %v/%s",
							d.name, tg.name, filters[filter], drivers[driver], stores[store].name)
						got, err := h.query(t, ds, filter, driver, store, tg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if tg.nearest != nil {
							if !slices.Equal(got.neighbors, tg.nearest) {
								if driver == 0 || !tieResidual(got.neighbors, tg) {
									t.Errorf("%s: neighbours %v, the scan %v", name, got.neighbors, tg.nearest)
								}
								residuals++
							}
							continue
						}
						checkIDs(t, name, tg, driver == 0, got.ids)
						decided += got.stats.FilterHits + got.stats.FilterFalseHits
						ref, ok := refs[driver]
						if !ok {
							refs[driver], ref = got, got
						}
						want := refs[0].stats
						if driver > 0 {
							var pages int64
							for _, ts := range got.tiles {
								pages += ts.Stats.PageAccesses
							}
							if pages != got.stats.PageAccesses {
								t.Errorf("%s: per-tile page accesses sum to %d, not %d", name, pages, got.stats.PageAccesses)
							}
							want.PageAccesses = got.stats.PageAccesses
						}
						if got.stats != want || got.stats != ref.stats || !reflect.DeepEqual(got.tiles, ref.tiles) {
							t.Errorf("%s: statistics %+v %+v, want %+v and %+v", name, got.stats, got.tiles, want, ref)
						}
					}
				}
			}
		}
	}
	if decided == 0 {
		t.Error("the window filter never decided anything")
	}
	t.Logf("%d facade nearest answers cut a tie at the k-th distance by tile-local ID (DESIGN.md §7)", residuals)
}

// checkIDs holds window, point and ε-range ids to the scan.
func checkIDs(t *testing.T, name string, tg target, solo bool, ids []int32) {
	t.Helper()
	want := tg.ids
	if solo {
		ids = slices.Sorted(slices.Values(ids))
	}
	if tg.limit >= 0 {
		n := min(tg.limit, len(want))
		if solo && len(ids) == n && !slices.ContainsFunc(ids, func(id int32) bool { return !slices.Contains(want, id) }) {
			return // any limit objects of the answer, in tree order
		}
		want = want[:n]
	}
	if !slices.Equal(ids, want) {
		t.Errorf("%s: ids %v, the scan %v", name, ids, want)
	}
}

// tieResidual reports whether a facade's nearest answer differs from the
// scan only as DESIGN.md §7 allows: a tile cuts the objects tied at the
// k-th distance by its local ID, so the answer has the right distances
// and every object nearer than the k-th, but any of the tied ones.
func tieResidual(got []multistep.Neighbor, tg target) bool {
	want := tg.nearest
	if len(got) != len(want) {
		return false
	}
	seen := map[int32]bool{}
	for i, nb := range got {
		if nb.Dist != want[i].Dist || tg.dists[nb.ID] != nb.Dist || seen[nb.ID] || nb.Dist < want[len(want)-1].Dist && nb.ID != want[i].ID {
			return false
		}
		seen[nb.ID] = true
	}
	return true
}
