package lattice

import (
	"context"
	"slices"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
)

// subset reports whether every pair of a is in b; both are sorted.
func subset(a, b []multistep.Pair) bool {
	return !slices.ContainsFunc(a, func(p multistep.Pair) bool {
		_, ok := slices.BinarySearchFunc(b, p, multistep.ComparePairs)
		return !ok
	})
}

// relPair is a dataset-shaped pair of relations under the recommended
// filter; a self-join's sides are one relation.
type relPair struct{ r, s *multistep.Relation }

func buildPair(r, s []*geom.Polygon, self bool) relPair {
	p := relPair{multistep.NewRelation("R", r, buildConfig(1)), nil}
	if p.s = p.r; !self {
		p.s = multistep.NewRelation("S", s, buildConfig(1))
	}
	return p
}

// join runs the pair on the solo driver under one engine, mapping every
// pair through f (when not nil) and sorting the result.
func (p relPair) join(t *testing.T, engine multistep.Engine, pred multistep.Predicate, f func(multistep.Pair) multistep.Pair) []multistep.Pair {
	t.Helper()
	cfg := buildConfig(1)
	cfg.Engine = engine
	pairs, _, err := multistep.Join(context.Background(), p.r, p.s, multistep.WithConfig(cfg), multistep.WithPredicate(pred),
		multistep.WithSessions(p.r.NewSession(), p.s.NewSession()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if f != nil {
			pairs[i] = f(pairs[i])
		}
	}
	slices.SortFunc(pairs, multistep.ComparePairs)
	return pairs
}

// TestMetamorphicRelations checks the algebra a planner may rely on. On
// every dataset, between the oracle's answers: contains ⊆ intersects ⊆
// within(0.01) ⊆ within(0.1), within(0) is intersects (two independent
// kernels: distance and edge crossing), and a self-join holds its
// diagonal under every predicate. On every engine (-short: TR*-tree
// only), within(0) answers intersects under every filter, and the answer
// does not move when both inputs are scaled by 2 (with 2ε) or translated
// by (3, −5), when S is permuted, or — for intersects and within — when
// R and S swap sides.
func TestMetamorphicRelations(t *testing.T) {
	scale := func(q geom.Point) geom.Point { return geom.Point{X: 2 * q.X, Y: 2 * q.Y} }
	transform := func(ps []*geom.Polygon, f func(geom.Point) geom.Point) []*geom.Polygon {
		out := make([]*geom.Polygon, len(ps))
		for i, p := range ps {
			out[i] = p.Transform(f)
		}
		return out
	}
	shift := func(q geom.Point) geom.Point { return geom.Point{X: q.X + 3, Y: q.Y - 5} }
	for ds, d := range theDatasets {
		ans := make([][]multistep.Pair, len(predicates))
		for pred := range predicates {
			ans[pred] = h.answer(ds, pred)
		}
		if !subset(ans[1], ans[0]) || !subset(ans[0], ans[2]) || !subset(ans[2], ans[3]) ||
			!slices.Equal(nestedLoops(d.r, d.s, within(0)), ans[0]) {
			t.Errorf("%s: the oracle breaks contains ⊆ intersects = within(0) ⊆ within(0.01) ⊆ within(0.1)", d.name)
		}
		for pred, a := range ans {
			for i := range d.r {
				if d.self && !slices.Contains(a, multistep.Pair{A: int32(i), B: int32(i)}) {
					t.Errorf("%s/%s: the self-join lacks (%d, %d)", d.name, predicates[pred].name, i, i)
				}
			}
		}
		reversed := slices.Clone(d.s)
		slices.Reverse(reversed)
		r, s := h.pair(t, cell{ds: ds, filter: 1})
		swapped := relPair{s.Tiles[0].Rel, r.Tiles[0].Rel}
		scaled := buildPair(transform(d.r, scale), transform(d.s, scale), d.self)
		shifted := buildPair(transform(d.r, shift), transform(d.s, shift), d.self)
		permuted := buildPair(d.r, reversed, false)
		unreverse := func(q multistep.Pair) multistep.Pair { return multistep.Pair{A: q.A, B: int32(len(d.s)) - 1 - q.B} }
		swap := func(q multistep.Pair) multistep.Pair { return multistep.Pair{A: q.B, B: q.A} }
		for engine, e := range engines {
			if testing.Short() && e != multistep.EngineTRStar {
				continue
			}
			for filter := range filters {
				if testing.Short() && filter > 1 {
					continue
				}
				c := cell{ds: ds, engine: engine, filter: filter}
				if o, err := h.exec(t, c, multistep.WithPredicate(multistep.WithinDistance(0))); err != nil || !slices.Equal(o.pairs, ans[0]) {
					t.Errorf("%v: within(0) answers %d pairs (err %v), intersects %d", c, len(o.pairs), err, len(ans[0]))
				}
			}
			for pred, p := range predicates {
				twice := p.pred
				if eps := p.pred.Epsilon(); eps > 0 {
					twice = multistep.WithinDistance(2 * eps)
				}
				runs := map[string][]multistep.Pair{
					"scaled by 2": scaled.join(t, e, twice, nil),
					"translated":  shifted.join(t, e, p.pred, nil),
					"S permuted":  permuted.join(t, e, p.pred, unreverse),
				}
				if !p.nested {
					runs["S ⋈ R"] = swapped.join(t, e, p.pred, swap)
				}
				for name, got := range runs {
					if !slices.Equal(got, ans[pred]) {
						t.Errorf("%s/%v/%s %s: %d pairs, want %d", d.name, e, p.name, name, len(got), len(ans[pred]))
					}
				}
			}
		}
	}
}
