package multistep

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/exact"
	"spatialjoin/internal/ops"
	"spatialjoin/internal/trstar"
)

// Predicate is the spatial relationship a Join or Query evaluates. The
// paper's architecture is predicate-generic — section 2.2: "for other
// predicates ... a similar approach can be used" — and Predicate is that
// genericity made explicit: each predicate specializes all three steps of
// the processor.
//
//	            step 1 (MBR key)       step 2 (filter)          step 3 (exact)
//	Intersects  MBR ∩ MBR              Classify                 engine intersection test
//	Contains    MBR ⊇ MBR pretest      ClassifyContains         exact inclusion test
//	Within(ε)   ε-expanded MBR ∩       ClassifyWithin (approx.  engine within-ε test
//	                                   within ε, decided on     (dist ≤ ε decided on
//	                                   squared gaps)            squared gaps)
//
// The within-distance join needs no new index: the same R*-trees serve
// it, because the ε-expanded rectangle predicate is evaluated by the same
// synchronized traversal with ε slack folded into the sweep bounds.
// Construct predicates with Intersects, Contains or WithinDistance; the
// zero value is Intersects.
type Predicate struct {
	kind predKind
	eps  float64
}

type predKind int

const (
	predIntersects predKind = iota
	predContains
	predWithin
)

// Intersects is the paper's primary predicate: the regions share at least
// one point. It is the default of Join and Query.
func Intersects() Predicate { return Predicate{kind: predIntersects} }

// Contains is the inclusion predicate: the region of the left (R-side)
// object contains the region of the right (S-side) object.
func Contains() Predicate { return Predicate{kind: predContains} }

// WithinDistance is the ε-join predicate of classical spatial query
// processing (the buffer/distance join): the regions lie within Euclidean
// distance eps of each other. WithinDistance(0) is equivalent to
// Intersects. A negative or non-finite eps is rejected when the query
// runs.
func WithinDistance(eps float64) Predicate {
	return Predicate{kind: predWithin, eps: eps}
}

// Epsilon returns the distance bound of a WithinDistance predicate and 0
// for every other predicate.
func (p Predicate) Epsilon() float64 { return p.eps }

// String returns a parseable name: "intersects", "contains" or
// "within(ε)".
func (p Predicate) String() string {
	switch p.kind {
	case predContains:
		return "contains"
	case predWithin:
		b := make([]byte, 0, 32)
		b = append(b, "within("...)
		b = strconv.AppendFloat(b, p.eps, 'g', -1, 64)
		return string(append(b, ')'))
	default:
		return "intersects"
	}
}

// ParsePredicate parses a predicate name as used by cmd/spatialjoin and
// the serving layer: "intersects", "contains", or "within" (also
// "within-distance", "distance", "epsilon") with the distance bound
// supplied separately. eps is ignored for the other predicates.
func ParsePredicate(name string, eps float64) (Predicate, error) {
	switch strings.ToLower(name) {
	case "", "intersects", "intersect":
		return Intersects(), nil
	case "contains", "inclusion":
		return Contains(), nil
	case "within", "within-distance", "distance", "epsilon":
		p := WithinDistance(eps)
		if err := p.Validate(); err != nil {
			return Predicate{}, err
		}
		return p, nil
	}
	return Predicate{}, fmt.Errorf("multistep: unknown predicate %q", name)
}

// Validate rejects predicates no join or query can evaluate: a distance
// bound must be a finite, non-negative number. (NaN in particular fails
// every comparison, so the kernels' d > ε and d² ≤ ε² tests would
// disagree on it.) Join and Query run it; a routing layer runs it before
// fanning a request out.
func (p Predicate) Validate() error {
	if p.kind == predWithin && !(p.eps >= 0 && p.eps <= math.MaxFloat64) {
		return fmt.Errorf("multistep: distance bound %g is not a finite non-negative number", p.eps)
	}
	return nil
}

// step1Eps returns the ε slack of the step 1 rectangle predicate: two
// MBRs are a candidate pair when their per-axis gap is at most this.
func (p Predicate) step1Eps() float64 {
	if p.kind == predWithin {
		return p.eps
	}
	return 0
}

// pretest is the step 1 candidate refinement applied after the rectangle
// predicate: inclusion joins keep only pairs whose MBRs nest (containment
// of the regions implies containment of the MBRs); the other predicates
// keep every pair.
func (p Predicate) pretest(a, b *Object) bool {
	if p.kind == predContains {
		return a.Approx.MBR.Contains(b.Approx.MBR)
	}
	return true
}

// classify runs the predicate-specific step 2 geometric filter.
func (p Predicate) classify(f approx.FilterConfig, a, b *Object) approx.Class {
	switch p.kind {
	case predContains:
		return f.ClassifyContains(a.Approx, b.Approx)
	case predWithin:
		return f.ClassifyWithin(a.Approx, b.Approx, p.eps)
	default:
		return f.Classify(a.Approx, b.Approx)
	}
}

// exactDecide runs the predicate-specific step 3 exact geometry test
// under the configured engine.
func (p Predicate) exactDecide(cfg Config, a, b *Object, c *ops.Counters) bool {
	switch p.kind {
	case predContains:
		// The inclusion test is a single algorithm (section 2.2 names no
		// engine variants for it); it runs on the prepared representation
		// regardless of the configured intersection engine.
		return exact.ContainsPolygon(a.Prepared(), b.Prepared(), c)
	case predWithin:
		switch cfg.Engine {
		case EngineQuadratic:
			return exact.WithinDistance(a.Prepared(), b.Prepared(), p.eps, false, c)
		case EnginePlaneSweep:
			// The sweep's contribution to the intersection test is the
			// search-space restriction of section 4.1; its ε-analogue
			// restricts the edge sets to the ε-neighbourhood of the other
			// object's MBR.
			return exact.WithinDistance(a.Prepared(), b.Prepared(), p.eps, true, c)
		case EngineTRStar:
			return trstar.WithinDistance(a.Tree(cfg.TRCapacity), b.Tree(cfg.TRCapacity), p.eps, c)
		default:
			panic("multistep: unknown engine")
		}
	default:
		switch cfg.Engine {
		case EngineQuadratic:
			return exact.QuadraticIntersects(a.Prepared(), b.Prepared(), c)
		case EnginePlaneSweep:
			return exact.PlaneSweepIntersects(a.Prepared(), b.Prepared(), cfg.PlaneSweepRestrict, c)
		case EngineTRStar:
			return trstar.Intersects(a.Tree(cfg.TRCapacity), b.Tree(cfg.TRCapacity), c)
		default:
			panic("multistep: unknown engine")
		}
	}
}
