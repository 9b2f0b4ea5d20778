package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/convex"
	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/plan"
	"spatialjoin/internal/rstar"
)

// BigParams sizes the section 3.4/3.5/5 experiments. The paper joins two
// relations of about 130,000 objects; the default here is a
// shape-preserving 20,000 so the whole suite runs in minutes — pass
// N=130000 (cmd/experiments -big) for the full-scale run.
type BigParams struct {
	N           int   // objects per relation
	Points      int   // point queries per measurement (Figure 10)
	Windows     int   // window queries per size class (Figure 10)
	Seed        int64 // data seed
	BufferBytes int   // LRU buffer (paper: 128 KB)
}

// DefaultBigParams returns the scaled-down defaults.
func DefaultBigParams() BigParams {
	return BigParams{N: 20000, Points: 400, Windows: 150, Seed: 7001, BufferBytes: 128 << 10}
}

// bigRelations caches the generated big relations per (n, seed).
var bigCache sync.Map

type bigKey struct {
	n    int
	seed int64
}

func bigRelations(p BigParams) (r, s []*geom.Polygon) {
	if v, ok := bigCache.Load(bigKey{p.N, p.Seed}); ok {
		pair := v.([2][]*geom.Polygon)
		return pair[0], pair[1]
	}
	r = data.GenerateMap(data.BigConfig(p.N, p.Seed))
	s = data.StrategyA(r, 0.45)
	bigCache.Store(bigKey{p.N, p.Seed}, [2][]*geom.Polygon{r, s})
	return r, s
}

// approachTrees builds the approach 1 and approach 2 trees of section 3.4
// for one conservative kind: approach 1 uses the approximation as the
// geometric key (entry = approximation + info; key rect = the
// approximation's bounding box, which is looser than the MBR); approach 2
// stores the approximation in addition to the MBR (larger entry, tighter
// key).
func approachTrees(polys []*geom.Polygon, kind approx.Kind, pageSize, bufferBytes int) (a1, a2 *rstar.Tree) {
	kindBytes := kind.ByteSize(0)
	a1 = rstar.New(rstar.Config{
		PageSize:       pageSize,
		LeafEntryBytes: kindBytes + 32,
		BufferBytes:    bufferBytes,
	})
	a2 = rstar.New(rstar.Config{
		PageSize:       pageSize,
		LeafEntryBytes: 16 + kindBytes + 32,
		BufferBytes:    bufferBytes,
	})
	for i, p := range polys {
		var verts []geom.Point
		verts = p.Vertices(verts)
		hull := convex.Hull(verts)
		var keyRect geom.Rect
		switch kind {
		case approx.RMBR:
			o := convex.MinAreaRect(hull)
			keyRect = o.Ring().Bounds()
		case approx.C5:
			keyRect = convex.MinBoundingKGon(hull, 5).Bounds()
		default:
			keyRect = p.Bounds()
		}
		a1.Insert(rstar.Item{Rect: keyRect, ID: int32(i)})
		a2.Insert(rstar.Item{Rect: p.Bounds(), ID: int32(i)})
	}
	return a1, a2
}

// Figure10 reproduces Figure 10: the I/O cost of approach 2 (approximation
// in addition to the MBR) as a percentage of approach 1 (approximation
// instead of the MBR), for point queries, 1 % and 5 % window queries and
// the intersection join, with RMBR and 5-C approximations on 2 KB and 4 KB
// pages. It also reports the CPU-side ratio of approximation tests, which
// the paper quotes as "about 30 times as often" for approach 1.
func Figure10(p BigParams) *Table {
	t := &Table{
		Title: "Figure 10 — page accesses of approach 2 in % of approach 1",
		Header: []string{"approx", "page KB", "point q. %", "window 1% %", "window 5% %",
			"join %", "approx-test ratio a1/a2"},
	}
	r, s := bigRelations(p)
	rng := rand.New(rand.NewSource(p.Seed + 1))
	points := make([]geom.Point, p.Points)
	for i := range points {
		points[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	win := func(ext float64) []geom.Rect {
		out := make([]geom.Rect, p.Windows)
		for i := range out {
			x := rng.Float64() * (1 - ext)
			y := rng.Float64() * (1 - ext)
			out[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + ext, MaxY: y + ext}
		}
		return out
	}
	w1 := win(0.01)
	w5 := win(0.05)

	for _, kind := range []approx.Kind{approx.RMBR, approx.C5} {
		for _, pageSize := range []int{2048, 4096} {
			a1, a2 := approachTrees(r, kind, pageSize, p.BufferBytes)
			b1, b2 := approachTrees(s, kind, pageSize, p.BufferBytes)

			measure := func(tree *rstar.Tree, run func(*rstar.Tree)) int64 {
				tree.Buffer().Clear()
				run(tree)
				return tree.Buffer().Misses()
			}
			queryCost := func(tree *rstar.Tree, class int) int64 {
				return measure(tree, func(tr *rstar.Tree) {
					switch class {
					case 0:
						for _, pt := range points {
							pr := geom.Rect{MinX: pt.X, MinY: pt.Y, MaxX: pt.X, MaxY: pt.Y}
							tr.WindowQueryAccess(tr.Buffer(), pr, func(rstar.Item) {})
						}
					case 1:
						for _, w := range w1 {
							tr.WindowQueryAccess(tr.Buffer(), w, func(rstar.Item) {})
						}
					case 2:
						for _, w := range w5 {
							tr.WindowQueryAccess(tr.Buffer(), w, func(rstar.Item) {})
						}
					}
				})
			}
			var joinMisses [2]int64
			var approxTests [2]int64
			for i, pair := range [2][2]*rstar.Tree{{a1, b1}, {a2, b2}} {
				pair[0].Buffer().Clear()
				pair[1].Buffer().Clear()
				st := rstar.JoinParallelAccess(context.Background(), pair[0], pair[1],
					pair[0].Buffer(), pair[1].Buffer(), 0, 1, func(int, rstar.Item, rstar.Item) {})
				joinMisses[i] = pair[0].Buffer().Misses() + pair[1].Buffer().Misses()
				if i == 0 {
					// Approach 1: the key IS the approximation; every
					// leaf-level key test is an approximation test.
					approxTests[0] = st.LeafTests
				} else {
					// Approach 2: the approximation is tested only for
					// pairs whose MBRs intersect.
					approxTests[1] = st.Pairs
				}
			}
			ratio := func(v2, v1 int64) string {
				if v1 == 0 {
					return "n/a"
				}
				return fmt.Sprintf("%.0f", 100*float64(v2)/float64(v1))
			}
			atRatio := "n/a"
			if approxTests[1] > 0 {
				atRatio = fmt.Sprintf("%.1f", float64(approxTests[0])/float64(approxTests[1]))
			}
			t.AddRow(kind.String(), fmt.Sprint(pageSize/1024),
				ratio(queryCost(a2, 0), queryCost(a1, 0)),
				ratio(queryCost(a2, 1), queryCost(a1, 1)),
				ratio(queryCost(a2, 2), queryCost(a1, 2)),
				ratio(joinMisses[1], joinMisses[0]),
				atRatio)
		}
	}
	t.Comment = "Paper: only slight differences (bars near 100 %), small advantages for approach 1 on I/O;\n" +
		"approach 1 tests the approximation ≈ 30× as often — approach 2 wins overall."
	return t
}

// Figure11Row is one bar group of Figure 11.
type Figure11Row struct {
	Kind     approx.Kind
	PageSize int
	Loss     float64 // extra MBR-join page accesses
	Gain     float64 // page accesses saved by identified pairs
	Total    float64 // Gain − Loss
}

// Figure11 reproduces Figure 11: the loss (extra MBR-join page accesses
// caused by storing approximations), the gain (page accesses saved by
// filter-identified pairs, one per pair) and the total, for the RMBR and
// the 5-C (each together with the MER) on 2 KB and 4 KB pages.
func Figure11(p BigParams) (*Table, []Figure11Row) {
	t := &Table{
		Title:  "Figure 11 — change of performance using approximations (page accesses)",
		Header: []string{"approx", "page KB", "loss", "gain", "total"},
	}
	r, s := bigRelations(p)
	var rows []Figure11Row
	for _, kind := range []approx.Kind{approx.RMBR, approx.C5} {
		for _, pageSize := range []int{2048, 4096} {
			base := multistep.DefaultConfig()
			base.UseFilter = false
			base.PageSize = pageSize
			base.BufferBytes = p.BufferBytes

			filt := multistep.DefaultConfig()
			filt.Filter.Conservative = kind
			filt.Filter.Progressive = approx.MER
			filt.PageSize = pageSize
			filt.BufferBytes = p.BufferBytes

			r0 := multistep.NewRelation("R", r, base)
			s0 := multistep.NewRelation("S", s, base)
			_, st0 := seqJoin(r0, s0, base)

			r1 := multistep.NewRelation("R", r, filt)
			s1 := multistep.NewRelation("S", s, filt)
			_, st1 := seqJoin(r1, s1, filt)

			gl := plan.Figure11(st0.PageAccessesR+st0.PageAccessesS, st1.PageAccessesR+st1.PageAccessesS,
				st1.FilterHits+st1.FilterFalseHits, plan.PaperParams())
			rows = append(rows, Figure11Row{Kind: kind, PageSize: pageSize,
				Loss: gl.Loss, Gain: gl.Gain, Total: gl.Total})
			t.AddRow(kind.String(), fmt.Sprint(pageSize/1024),
				fmt.Sprintf("%.0f", gl.Loss), fmt.Sprintf("%.0f", gl.Gain),
				fmt.Sprintf("%.0f", gl.Total))
		}
	}
	t.Comment = "Paper: gains far exceed the additional MBR-join cost for both approximations and page sizes."
	return t, rows
}

// Figure18Row is one stacked bar of Figure 18.
type Figure18Row struct {
	Version   string
	Breakdown plan.Breakdown
}

// Figure18 reproduces Figure 18: the total join performance of the three
// processor versions — version 1 without additional approximations and
// with the plane-sweep exact step, version 2 adding the 5-C + MER filter,
// version 3 additionally replacing the plane sweep by the TR*-tree.
// Measured statistics feed the section 5 cost model with the paper's
// constants.
func Figure18(p BigParams) (*Table, []Figure18Row) {
	r, s := bigRelations(p)

	v1cfg := multistep.DefaultConfig()
	v1cfg.UseFilter = false
	v1cfg.Engine = multistep.EnginePlaneSweep
	v1cfg.BufferBytes = p.BufferBytes

	v2cfg := multistep.DefaultConfig()
	v2cfg.Engine = multistep.EnginePlaneSweep
	v2cfg.BufferBytes = p.BufferBytes

	v3cfg := multistep.DefaultConfig()
	v3cfg.Engine = multistep.EngineTRStar
	v3cfg.BufferBytes = p.BufferBytes

	params := plan.PaperParams()
	model := func(st multistep.Stats, e multistep.Engine) plan.Breakdown {
		return plan.FromStats(st.PageAccessesR+st.PageAccessesS, st.ExactTested, plan.Engine(e), params)
	}
	var rows []Figure18Row

	r1 := multistep.NewRelation("R", r, v1cfg)
	s1 := multistep.NewRelation("S", s, v1cfg)
	_, st1 := seqJoin(r1, s1, v1cfg)
	rows = append(rows, Figure18Row{Version: "version 1 (no filter, plane-sweep)",
		Breakdown: model(st1, v1cfg.Engine)})

	// Versions 2 and 3 share the filtered relations (same entry layout).
	r2 := multistep.NewRelation("R", r, v2cfg)
	s2 := multistep.NewRelation("S", s, v2cfg)
	_, st2 := seqJoin(r2, s2, v2cfg)
	rows = append(rows, Figure18Row{Version: "version 2 (5-C+MER filter, plane-sweep)",
		Breakdown: model(st2, v2cfg.Engine)})

	_, st3 := seqJoin(r2, s2, v3cfg)
	rows = append(rows, Figure18Row{Version: "version 3 (5-C+MER filter, TR*-tree)",
		Breakdown: model(st3, v3cfg.Engine)})

	t := &Table{
		Title:  "Figure 18 — total join performance (section 5 cost model, seconds)",
		Header: []string{"version", "MBR-join", "object access", "exact test", "total"},
	}
	for _, row := range rows {
		b := row.Breakdown
		t.AddRow(row.Version, fmt.Sprintf("%.1f", b.MBRJoin),
			fmt.Sprintf("%.1f", b.ObjectAccess), fmt.Sprintf("%.1f", b.ExactTest),
			fmt.Sprintf("%.1f", b.Total()))
	}
	if len(rows) == 3 {
		t.Comment = fmt.Sprintf(
			"Speedups: v1/v2 = %.2f, v2/v3 = %.2f, v1/v3 = %.2f (paper: ≈ 1.7, ≈ 2, > 3).",
			rows[0].Breakdown.Total()/rows[1].Breakdown.Total(),
			rows[1].Breakdown.Total()/rows[2].Breakdown.Total(),
			rows[0].Breakdown.Total()/rows[2].Breakdown.Total())
	}
	return t, rows
}
