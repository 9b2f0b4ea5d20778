package approx

import (
	"spatialjoin/internal/convex"
	"spatialjoin/internal/geom"
)

// The geometric filter of step 2 (section 2.4, Figure 1) classifies each
// candidate pair delivered by the MBR-join into one of three classes:
//
//	Hit      — the objects provably intersect (progressive approximations
//	           intersect, or the false-area test fires),
//	FalseHit — the objects provably do not intersect (conservative
//	           approximations are disjoint),
//	Candidate — undecided; the pair goes to the exact geometry processor.
type Class int

// Filter outcomes.
const (
	Candidate Class = iota
	Hit
	FalseHit
)

// String returns a human-readable class name.
func (c Class) String() string {
	switch c {
	case Hit:
		return "hit"
	case FalseHit:
		return "false hit"
	default:
		return "candidate"
	}
}

// ConservativeIntersects reports whether the conservative approximations
// of kind k of the two objects intersect. A negative answer proves the
// pair is a false hit; a positive answer proves nothing. Polygonal kinds
// use the separating-axis test, circles the analytic test, ellipses GJK.
func ConservativeIntersects(k Kind, a, b *Set) bool {
	switch k {
	case MBR:
		return a.MBR.Intersects(b.MBR)
	case RMBR:
		return convex.SATIntersects(a.RMBRA.Ring(), b.RMBRA.Ring())
	case CH:
		return convex.SATIntersects(a.CHA, b.CHA)
	case C4:
		return satOrDegenerate(a.C4A, b.C4A)
	case C5:
		return satOrDegenerate(a.C5A, b.C5A)
	case MBC:
		return a.MBCA.Intersects(*b.MBCA)
	case MBE:
		return convex.GJKIntersects(*a.MBEA, *b.MBEA)
	}
	panic("approx: not a conservative kind: " + k.String())
}

// satOrDegenerate handles k-gon rings that may have fewer than 3 vertices
// for degenerate hulls.
func satOrDegenerate(a, b geom.Ring) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	return convex.SATIntersects(a, b)
}

// ProgressiveIntersects reports whether the progressive approximations of
// kind k of the two objects intersect. A positive answer proves the pair
// is a hit (section 3.3): the approximations are subsets of the objects.
func ProgressiveIntersects(k Kind, a, b *Set) bool {
	switch k {
	case MEC:
		return a.MECA.R > 0 && b.MECA.R > 0 && a.MECA.Intersects(*b.MECA)
	case MER:
		return !a.MERA.IsEmpty() && !b.MERA.IsEmpty() && a.MERA.Intersects(*b.MERA)
	}
	panic("approx: not a progressive kind: " + k.String())
}

// FalseAreaHit applies the false-area test of section 3.3 with the
// conservative approximation of kind k:
//
//	area(Appr(a) ∩ Appr(b)) > falseArea(a) + falseArea(b)  ⇒  a ∩ b ≠ ∅.
//
// A positive answer proves a hit; a negative answer proves nothing.
func FalseAreaHit(k Kind, a, b *Set) bool {
	var inter float64
	switch k {
	case MBR:
		inter = a.MBR.OverlapArea(b.MBR)
	case RMBR, CH, C4, C5:
		ra, rb := a.Outline(k), b.Outline(k)
		if len(ra) < 3 || len(rb) < 3 {
			return false
		}
		inter = convex.IntersectionArea(ra, rb)
	case MBC, MBE:
		// Curved shapes: clip the polygonized outlines. The outline is
		// inscribed, so the intersection area is slightly underestimated —
		// the test stays sound (it can only miss hits, never invent them).
		inter = convex.IntersectionArea(a.Outline(k), b.Outline(k))
	default:
		panic("approx: not a conservative kind: " + k.String())
	}
	return inter > a.FalseArea(k)+b.FalseArea(k)
}

// FilterConfig selects the approximations the geometric filter uses, as in
// section 3.6: a conservative kind to identify false hits, a progressive
// kind to identify hits, and optionally the false-area test.
type FilterConfig struct {
	Conservative Kind // e.g. C5 (the paper's recommendation); MBR disables
	Progressive  Kind // e.g. MER (the paper's recommendation)
	UseFalseArea bool // additionally apply the false-area test
}

// RecommendedFilter is the paper's section 3.6 recommendation: identify
// false hits with the 5-corner and hits with the maximum enclosed
// rectangle.
func RecommendedFilter() FilterConfig {
	return FilterConfig{Conservative: C5, Progressive: MER}
}

// Classify runs the geometric filter on one candidate pair. The step order
// follows the paper: conservative test first (cheapest useful outcome:
// false hit), then progressive test, then optionally the false-area test.
func (f FilterConfig) Classify(a, b *Set) Class {
	if f.Conservative != MBR && !ConservativeIntersects(f.Conservative, a, b) {
		return FalseHit
	}
	if ProgressiveIntersects(f.Progressive, a, b) {
		return Hit
	}
	if f.UseFalseArea {
		if FalseAreaHit(f.Conservative, a, b) {
			return Hit
		}
	}
	return Candidate
}

// ClassifyWithin runs the geometric filter on one candidate pair of the
// within-distance (ε-)join. It tries the cheap hit proofs first, because
// most candidates of an ε-join are hits:
//
//   - progressive approximations are subsets, so they are at least as far
//     apart as the objects — progressive approximations within eps prove
//     a hit;
//   - so are the witness vertices, points of the objects on their MBRs'
//     sides — two witnesses, or a witness and the other object's MER,
//     within eps prove a hit (witnessWithin);
//   - conservative approximations are supersets, so they are at most as
//     far apart as the objects — conservative approximations more than
//     eps apart prove a false hit;
//   - the false-area test proves the objects intersect, i.e. distance 0,
//     which is a hit for every eps ≥ 0.
//
// A proven hit is never a conservative false hit (a subset lies within
// eps only if its superset does), so the order changes the work, not the
// classes. The tests decide "within eps" directly (squared gaps against
// eps², early exits in the convex kernel), each at roundingMargin from
// eps; no distance is computed. Unlike the intersection filter, the MBR
// is a useful conservative kind here: step 1 prunes with the ε-expanded
// (per-axis) MBR test, while the Euclidean MBR distance additionally
// rejects diagonal near-misses. With eps = 0 the witness test proves
// nothing, and the classification is equivalent to Classify wherever the
// within-eps kernels and the boolean intersection tests agree (they do
// for every polygonal kind; both are exact).
func (f FilterConfig) ClassifyWithin(a, b *Set, eps float64) Class {
	if near := eps * (1 - roundingMargin); progressiveWithin(f.Progressive, a, b, near) || witnessWithin(a, b, near) {
		return Hit
	}
	if !conservativeWithin(f.Conservative, a, b, eps*(1+roundingMargin)) {
		return FalseHit
	}
	if f.UseFalseArea && FalseAreaHit(f.Conservative, a, b) {
		return Hit
	}
	return Candidate
}

// roundingMargin bounds the relative rounding error of a distance the
// filter computes in float64 (below 1e-15: a difference, a square and a
// sum, each rounded once, plus the rounding of eps²). Each proof of the
// ε-join filter keeps this margin from eps, so that rounding never
// decides a pair at distance eps: progressive approximations and
// witnesses prove a hit only within eps·(1 − roundingMargin), and
// conservative approximations prove a false hit only beyond
// eps·(1 + roundingMargin). A pair inside the margin stays open for
// step 3.
const roundingMargin = 1e-12

// witnessWithin reports whether a witness vertex of one object lies
// strictly within eps of a witness vertex or the MER of the other. Both
// are points of the objects, so a positive answer proves a hit of the
// ε-join; it is negative, proving nothing, for eps = 0 (the comparison is
// strict) and for a set without witnesses.
func witnessWithin(a, b *Set, eps float64) bool {
	lim := eps * eps
	if !a.hasWit || !b.hasWit || lim <= 0 {
		return false
	}
	if b.MERA != nil && pointsNearRect(&a.wit, *b.MERA, lim) ||
		a.MERA != nil && pointsNearRect(&b.wit, *a.MERA, lim) {
		return true
	}
	for _, p := range a.wit {
		for _, q := range b.wit {
			if p.Dist2(q) < lim {
				return true
			}
		}
	}
	return false
}

// pointsNearRect reports whether one of the points lies closer to r than
// squared distance lim; an empty r is infinitely far.
func pointsNearRect(pts *[4]geom.Point, r geom.Rect, lim float64) bool {
	for _, p := range pts {
		if r.Dist2(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}) < lim {
			return true
		}
	}
	return false
}

// conservativeWithin reports whether the conservative approximations of
// kind k of the two objects lie within distance eps of each other. A
// negative answer proves the pair is a false hit of the ε-join (supersets
// are closer than the objects); a positive answer proves nothing. The
// test is exact for polygonal and circular kinds and falls back to the
// MBRs for kinds without a cheap exact test (ellipses) or with
// degenerate data.
func conservativeWithin(k Kind, a, b *Set, eps float64) bool {
	switch k {
	case MBR, MBE:
		// MBE: no closed-form ellipse distance; the MBR is the sound
		// conservative fallback (an inscribed outline would overestimate).
		return rectsWithin(a.MBR, b.MBR, eps)
	case RMBR:
		if a.RMBRA == nil || b.RMBRA == nil {
			return rectsWithin(a.MBR, b.MBR, eps)
		}
		return convex.WithinDist(a.RMBRA.Corners[:], b.RMBRA.Corners[:], eps)
	case CH:
		return ringsWithin(a.CHA, b.CHA, a, b, eps)
	case C4:
		return ringsWithin(a.C4A, b.C4A, a, b, eps)
	case C5:
		return ringsWithin(a.C5A, b.C5A, a, b, eps)
	case MBC:
		if a.MBCA == nil || b.MBCA == nil {
			return rectsWithin(a.MBR, b.MBR, eps)
		}
		return circlesWithin(a.MBCA, b.MBCA, eps)
	}
	panic("approx: not a conservative kind: " + k.String())
}

// ringsWithin is the convex-ring test with the MBR fallback for
// degenerate (empty) hull rings.
func ringsWithin(ra, rb geom.Ring, a, b *Set, eps float64) bool {
	if len(ra) == 0 || len(rb) == 0 {
		return rectsWithin(a.MBR, b.MBR, eps)
	}
	return convex.WithinDist(ra, rb, eps)
}

// progressiveWithin reports whether the progressive approximations of
// kind k of the two objects lie within distance eps of each other. A
// positive answer proves the pair is a hit of the ε-join (subsets are
// farther apart than the objects); it is negative, proving nothing, when
// either object has no progressive approximation.
func progressiveWithin(k Kind, a, b *Set, eps float64) bool {
	switch k {
	case MEC:
		if a.MECA == nil || b.MECA == nil || a.MECA.R <= 0 || b.MECA.R <= 0 {
			return false
		}
		return circlesWithin(a.MECA, b.MECA, eps)
	case MER:
		if a.MERA == nil || b.MERA == nil {
			return false
		}
		return rectsWithin(*a.MERA, *b.MERA, eps) // an empty MER is infinitely far
	}
	panic("approx: not a progressive kind: " + k.String())
}

func rectsWithin(r, s geom.Rect, eps float64) bool { return r.Dist2(s) <= eps*eps }

// circlesWithin reports whether two closed discs lie within eps of each
// other: the centres are at most the radii plus eps apart.
func circlesWithin(a, b *Circle, eps float64) bool {
	reach := a.R + b.R + eps
	return a.C.Dist2(b.C) <= reach*reach
}

// Kinds returns the approximation kinds Classify consumes, for use as
// Compute options.
func (f FilterConfig) Kinds() Options {
	opt := Options{Progressive: []Kind{f.Progressive}}
	if f.Conservative != MBR {
		opt.Conservative = []Kind{f.Conservative}
	}
	return opt
}
