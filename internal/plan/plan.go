// Package plan is the adaptive query planner of the paper's multi-step
// join processor. model.go reproduces section 5's *descriptive* model —
// it explains a measured run after the fact, in the paper's constants.
// The rest of the package is the *prescriptive* side: per-relation
// statistics derived from the objects, a histogram-overlap selectivity
// estimator for the step 1 candidate count, and Choose, which resolves
// the options a join left open (exact engine, filter on/off, worker
// count) by three rules and attaches the estimates EXPLAIN reports.
//
// The package is a leaf: it imports only internal/geom, so the multistep
// processor can consult it without an import cycle. All inputs are plain
// statistics; the bridge from multistep.Relation is on the multistep
// side (Relation.Stats).
//
// Statistics are load-time counts, as in System R: ComputeStats derives
// them from a relation's objects whenever the relation is built or
// opened, and nothing updates them per query. The planner is therefore
// a pure function of (statistics, request, GOMAXPROCS) — the same
// request plans the same way, however many joins ran before it.
package plan

import (
	"math"

	"spatialjoin/internal/geom"
)

// GridDim is the per-axis resolution of the MBR-center density
// histogram. 16×16 cells keep the histogram at 2 KiB per relation while
// resolving the skew that matters for tile-sized relations; the
// selectivity estimate visits GridDim⁴ cell pairs (65 536), a few tens
// of microseconds — negligible against the joins being planned.
const GridDim = 16

// Pred mirrors the multistep predicate kinds (the planner must not
// import multistep). The numeric values match multistep's predKind.
type Pred int

// The plannable predicates.
const (
	PredIntersects Pred = iota
	PredContains
	PredWithin
)

// Stats are the per-relation statistics the planner estimates from,
// derived by ComputeStats from the relation's objects. A Stats value is
// never modified after ComputeStats returns it, so any number of
// concurrent plans may read it.
type Stats struct {
	// Objects is the relation cardinality.
	Objects int64
	// MBR is the data space: the union of the object MBRs.
	MBR geom.Rect
	// MeanW and MeanH are the mean MBR extents. Together with the grid
	// they carry the Minkowski-style intersection test of the estimator:
	// two MBRs intersect iff their centers are within (wa+wb)/2 per axis.
	MeanW, MeanH float64
	// MeanVerts is the mean vertex count.
	MeanVerts float64
	// Grid is the GridDim×GridDim histogram of MBR-center counts over
	// MBR, row-major (x fastest). Float so future partitioners can store
	// fractional assignments.
	Grid []float64
}

// ComputeStats builds the statistics of a relation of n objects; rect
// and verts deliver the MBR and vertex count of object i. One pass, no
// allocation beyond the histogram — cheap enough to run unconditionally
// at build and open time.
func ComputeStats(n int, rect func(int) geom.Rect, verts func(int) int) *Stats {
	s := &Stats{Objects: int64(n), Grid: make([]float64, GridDim*GridDim)}
	if n == 0 {
		// An empty relation has no data space: keep the zero Rect rather
		// than the ±Inf EmptyRect() sentinel (estimateCandidates returns 0
		// for it before reading the MBR).
		return s
	}
	s.MBR = geom.EmptyRect()
	for i := 0; i < n; i++ {
		r := rect(i)
		s.MBR = s.MBR.Union(r)
		s.MeanW += r.Width()
		s.MeanH += r.Height()
		s.MeanVerts += float64(verts(i))
	}
	inv := 1 / float64(n)
	s.MeanW *= inv
	s.MeanH *= inv
	s.MeanVerts *= inv
	for i := 0; i < n; i++ {
		c := rect(i).Center()
		s.Grid[cellIndex(s.MBR, c)]++
	}
	return s
}

// cellIndex maps a point onto the histogram cell, clamping to the edge
// cells (degenerate axes collapse to cell 0 on that axis).
func cellIndex(mbr geom.Rect, p geom.Point) int {
	return cellCoord(mbr.MinX, mbr.MaxX, p.X) + GridDim*cellCoord(mbr.MinY, mbr.MaxY, p.Y)
}

func cellCoord(lo, hi, v float64) int {
	if hi <= lo {
		return 0
	}
	c := int((v - lo) / (hi - lo) * GridDim)
	if c < 0 {
		c = 0
	}
	if c >= GridDim {
		c = GridDim - 1
	}
	return c
}

// estimateCandidates predicts the step 1 candidate count of the MBR join
// of two relations under the given predicate: the histogram-overlap
// selectivity over the two center histograms, with the mean-extent
// Minkowski threshold (two MBRs intersect iff their centers are within
// (wa+wb)/2 + ε per axis). The inclusion predicate's MBR-nesting
// pretest is modelled as a constant nesting prior on top of the
// intersection estimate.
func estimateCandidates(r, s *Stats, p Pred, eps float64, w Weights) float64 {
	if r == nil || s == nil || r.Objects == 0 || s.Objects == 0 {
		return 0
	}
	tx := (r.MeanW+s.MeanW)/2 + eps
	ty := (r.MeanH+s.MeanH)/2 + eps

	// Per-axis probability tables: px[a][b] = P(|Xa−Xb| ≤ tx) with Xa
	// uniform in R-grid column a and Xb uniform in S-grid column b.
	var px, py [GridDim][GridDim]float64
	for a := 0; a < GridDim; a++ {
		ra1, ra2 := cellInterval(r.MBR.MinX, r.MBR.MaxX, a)
		rb1, rb2 := cellInterval(r.MBR.MinY, r.MBR.MaxY, a)
		for b := 0; b < GridDim; b++ {
			sa1, sa2 := cellInterval(s.MBR.MinX, s.MBR.MaxX, b)
			sb1, sb2 := cellInterval(s.MBR.MinY, s.MBR.MaxY, b)
			px[a][b] = probWithin(ra1, ra2, sa1, sa2, tx)
			py[a][b] = probWithin(rb1, rb2, sb1, sb2, ty)
		}
	}

	// Collapse the 2D sum into marginals per (row, column) pair: the
	// center histograms are row-major GridDim×GridDim, so the full sum
	// Σ nR(a)·nS(b)·px·py factors through per-row column sums.
	var est float64
	for ry := 0; ry < GridDim; ry++ {
		for sy := 0; sy < GridDim; sy++ {
			pyv := py[ry][sy]
			if pyv == 0 {
				continue
			}
			var rowSum float64
			for rx := 0; rx < GridDim; rx++ {
				nr := r.Grid[ry*GridDim+rx]
				if nr == 0 {
					continue
				}
				var acc float64
				for sx := 0; sx < GridDim; sx++ {
					acc += s.Grid[sy*GridDim+sx] * px[rx][sx]
				}
				rowSum += nr * acc
			}
			est += rowSum * pyv
		}
	}

	if p == PredContains {
		est *= w.ContainPrior
	}
	return est
}

// cellInterval returns the i-th of GridDim equal subintervals of
// [lo, hi]. A degenerate axis yields the point interval [lo, lo].
func cellInterval(lo, hi float64, i int) (float64, float64) {
	if hi <= lo {
		return lo, lo
	}
	w := (hi - lo) / GridDim
	return lo + float64(i)*w, lo + float64(i+1)*w
}

// probWithin returns P(|X−Y| ≤ t) for X ~ U[a1,a2], Y ~ U[b1,b2],
// exactly: the integrand m(y) = max(0, min(a2, y+t) − max(a1, y−t)) is
// piecewise linear with breakpoints at a1±t and a2±t, so the trapezoid
// rule over the breakpoints inside [b1, b2] integrates it without error.
func probWithin(a1, a2, b1, b2, t float64) float64 {
	if t < 0 {
		return 0
	}
	la, lb := a2-a1, b2-b1
	switch {
	case la <= 0 && lb <= 0:
		if math.Abs(a1-b1) <= t {
			return 1
		}
		return 0
	case la <= 0:
		return clamp01(overlap(b1, b2, a1-t, a1+t) / lb)
	case lb <= 0:
		return clamp01(overlap(a1, a2, b1-t, b1+t) / la)
	}
	m := func(y float64) float64 {
		v := math.Min(a2, y+t) - math.Max(a1, y-t)
		if v < 0 {
			return 0
		}
		return v
	}
	bps := [4]float64{a2 - t, a1 + t, a1 - t, a2 + t}
	// Insertion-sort the four breakpoints (clipped later): tiny and
	// allocation-free.
	for i := 1; i < len(bps); i++ {
		for j := i; j > 0 && bps[j] < bps[j-1]; j-- {
			bps[j], bps[j-1] = bps[j-1], bps[j]
		}
	}
	total := 0.0
	prev := b1
	for _, bp := range bps {
		if bp <= prev || bp >= b2 {
			continue
		}
		total += (m(prev) + m(bp)) / 2 * (bp - prev)
		prev = bp
	}
	total += (m(prev) + m(b2)) / 2 * (b2 - prev)
	return clamp01(total / (la * lb))
}

// overlap returns the length of [a1,a2] ∩ [b1,b2].
func overlap(a1, a2, b1, b2 float64) float64 {
	lo, hi := math.Max(a1, b1), math.Min(a2, b2)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
