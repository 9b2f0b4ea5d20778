// Package plan is the cost-based adaptive query planner: the System-R
// recipe (statistics → selectivity → cheapest access path) applied to the
// paper's multi-step join processor. model.go reproduces section 5's
// *descriptive* model — it explains a measured run after the fact, in
// the paper's constants. The rest of the package is the *prescriptive*
// counterpart: per-relation statistics collected at build time, a histogram-overlap
// selectivity estimator for the step 1 candidate count, calibrated cost
// weights per plan point, and an exhaustive search over the small plan
// space (exact engine × filter on/off × worker count × emission mode)
// that picks the cheapest predicted configuration for one join.
//
// The package is a leaf: it imports only internal/geom, so the multistep
// processor can consult it without an import cycle. All inputs are plain
// statistics; the bridge from multistep.Relation is on the multistep
// side (Relation.Stats).
//
// Estimates feed back: after every completed join the observed candidate
// count, filter identification rate and hit rate update per-relation
// EWMAs (Observe), so systematic estimator bias — skew the grid cannot
// see, workload-specific filter behaviour — corrects itself over a few
// runs. The EWMAs are persisted with the statistics in the relation
// store, so a reopened relation starts from what its history taught it.
package plan

import (
	"math"
	"sync/atomic"

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
	numPreds
)

// Stats are the per-relation statistics the planner estimates from:
// computed once at build time (ComputeStats), persisted in the relation
// store, and recomputed on open for stores predating the statistics
// section. The feedback EWMAs are the only mutable part and are safe for
// concurrent use.
type Stats struct {
	// Objects is the relation cardinality.
	Objects int64
	// MBR is the data space: the union of the object MBRs.
	MBR geom.Rect
	// MeanW and MeanH are the mean MBR extents. Together with the grid
	// they carry the Minkowski-style intersection test of the estimator:
	// two MBRs intersect iff their centers are within (wa+wb)/2 per axis.
	MeanW, MeanH float64
	// MeanVerts is the mean vertex count — the exact-test cost scale.
	MeanVerts float64
	// Grid is the GridDim×GridDim histogram of MBR-center counts over
	// MBR, row-major (x fastest). Float so future partitioners can store
	// fractional assignments.
	Grid []float64

	fb feedback
}

// feedback holds the per-predicate EWMAs updated by Observe. Values are
// float64 bits in atomics: observations arrive from concurrent joins.
// A zero word means "no observation yet".
type feedback struct {
	runs      atomic.Int64
	candRatio [numPreds]atomic.Uint64 // observed/predicted candidate count
	ident     [numPreds]atomic.Uint64 // fraction of candidates the filter decided
	hitFrac   [numPreds]atomic.Uint64 // fraction of candidates in the response set
	cacheHit  atomic.Uint64           // serving-layer result-cache hit rate
}

// ewmaAlpha weights a new observation against the running average. 0.3
// converges in a handful of runs without letting one outlier dominate.
const ewmaAlpha = 0.3

func ewmaStore(w *atomic.Uint64, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	for {
		old := w.Load()
		next := v
		if old != 0 {
			next = (1-ewmaAlpha)*math.Float64frombits(old) + ewmaAlpha*v
		}
		if w.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func ewmaLoad(w *atomic.Uint64, def float64) float64 {
	if bits := w.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return def
}

// Observe feeds one completed join back into the relation's EWMAs.
// predicted ≤ 0 skips the candidate-ratio update (the run was not
// planned), ident < 0 skips the identification update (the filter was
// off), hitFrac < 0 skips the hit-rate update (no candidates).
func (s *Stats) Observe(p Pred, predicted, actual, ident, hitFrac float64) {
	if s == nil || p < 0 || p >= numPreds {
		return
	}
	s.fb.runs.Add(1)
	if predicted > 0 && actual >= 0 {
		ratio := actual / predicted
		// Clamp: one degenerate estimate must not poison the EWMA.
		ratio = math.Max(0.05, math.Min(20, ratio))
		ewmaStore(&s.fb.candRatio[p], ratio)
	}
	if ident >= 0 {
		ewmaStore(&s.fb.ident[p], math.Min(1, ident))
	}
	if hitFrac >= 0 {
		ewmaStore(&s.fb.hitFrac[p], math.Min(1, hitFrac))
	}
}

// Runs returns the number of observations fed back so far.
func (s *Stats) Runs() int64 {
	if s == nil {
		return 0
	}
	return s.fb.runs.Load()
}

// CandCorrection returns the EWMA of observed/predicted candidates for
// the predicate, or 1 with no history.
func (s *Stats) CandCorrection(p Pred) float64 {
	if s == nil || p < 0 || p >= numPreds {
		return 1
	}
	return ewmaLoad(&s.fb.candRatio[p], 1)
}

// IdentRate returns the EWMA filter identification rate, or def.
func (s *Stats) IdentRate(p Pred, def float64) float64 {
	if s == nil || p < 0 || p >= numPreds {
		return def
	}
	return ewmaLoad(&s.fb.ident[p], def)
}

// ObserveCacheLookup feeds one serving-layer result-cache lookup
// against this relation into the cache-hit EWMA. Unlike the join
// feedback EWMAs this one is not persisted in the relation stores: hit
// rates describe the current serving session's traffic, not the data.
func (s *Stats) ObserveCacheLookup(hit bool) {
	if s == nil {
		return
	}
	v := 0.0
	if hit {
		v = 1.0
	}
	ewmaStore(&s.fb.cacheHit, v)
}

// CacheHitRate returns the EWMA of serving-layer result-cache lookups
// against this relation, or 0 with no history. Because ewmaStore treats
// a zero word as "no observation", an all-miss history decays toward
// but never reaches zero — which is fine: the rate only matters near 1.
func (s *Stats) CacheHitRate() float64 {
	if s == nil {
		return 0
	}
	return ewmaLoad(&s.fb.cacheHit, 0)
}

// HitFrac returns the EWMA response-pairs-per-candidate rate, or def.
func (s *Stats) HitFrac(p Pred, def float64) float64 {
	if s == nil || p < 0 || p >= numPreds {
		return def
	}
	return ewmaLoad(&s.fb.hitFrac[p], def)
}

// ComputeStats builds the statistics of a relation of n objects; rect
// and verts deliver the MBR and vertex count of object i. One pass, no
// allocation beyond the histogram — cheap enough to run unconditionally
// at build and open time.
func ComputeStats(n int, rect func(int) geom.Rect, verts func(int) int) *Stats {
	s := &Stats{Objects: int64(n), Grid: make([]float64, GridDim*GridDim)}
	if n == 0 {
		// Keep the zero Rect rather than EmptyRect(): the ±Inf empty
		// sentinel is not representable in the stats codec.
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

// EstimateCandidates predicts the step 1 candidate count of the MBR join
// of two relations under the given predicate: the histogram-overlap
// selectivity over the two center histograms, with the mean-extent
// Minkowski threshold (two MBRs intersect iff their centers are within
// (wa+wb)/2 + ε per axis), corrected by the relations' feedback EWMAs.
// The inclusion predicate's MBR-nesting pretest is modelled as a
// constant nesting prior on top of the intersection estimate, corrected
// by the same feedback.
func EstimateCandidates(r, s *Stats, p Pred, eps float64, w Weights) float64 {
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
	// Geometric mean of the two sides' corrections: each EWMA saw the
	// same joint ratio, so averaging in log space avoids double counting.
	est *= math.Sqrt(r.CandCorrection(p) * s.CandCorrection(p))
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
