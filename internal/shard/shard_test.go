package shard

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
)

// testWorkload is the shared map/overlay pair of the equivalence suite:
// small enough to build per-test, large enough that every tile of a
// four-way split holds work on both sides of the join.
func testWorkload(t testing.TB) ([]*geom.Polygon, []*geom.Polygon, multistep.Config) {
	t.Helper()
	rp := data.GenerateMap(data.MapConfig{Cells: 150, TargetVerts: 24, HoleFraction: 0.1, Seed: 907})
	sp := data.StrategyA(rp, 0.5)
	return rp, sp, multistep.DefaultConfig()
}

func TestBuildPartitionInvariants(t *testing.T) {
	rp, _, cfg := testWorkload(t)
	for _, n := range []int{1, 2, 4, 7} {
		sh := Build("R", rp, n, cfg)
		if sh.Shards() != n {
			t.Fatalf("Build(n=%d) made %d tiles", n, sh.Shards())
		}
		if sh.Objects() != len(rp) {
			t.Fatalf("n=%d: %d objects, want %d", n, sh.Objects(), len(rp))
		}
		// Every global ID assigned exactly once; tile MBRs cover their
		// members; tile sizes balanced to within one object.
		seen := make([]bool, len(rp))
		lo, hi := len(rp), 0
		for _, tile := range sh.Tiles {
			if len(tile.Global) != len(tile.Rel.Objects) {
				t.Fatalf("n=%d tile %d: %d global IDs for %d objects", n, tile.Index, len(tile.Global), len(tile.Rel.Objects))
			}
			if len(tile.Global) < lo {
				lo = len(tile.Global)
			}
			if len(tile.Global) > hi {
				hi = len(tile.Global)
			}
			for i, g := range tile.Global {
				if seen[g] {
					t.Fatalf("n=%d: global ID %d in two tiles", n, g)
				}
				seen[g] = true
				b := tile.Rel.Objects[i].Poly.Bounds()
				if !tile.MBR.Contains(b) {
					t.Fatalf("n=%d tile %d: MBR %v misses member %v", n, tile.Index, tile.MBR, b)
				}
			}
			if !sh.MBR().Contains(tile.MBR) {
				t.Fatalf("n=%d: facade MBR misses tile %d", n, tile.Index)
			}
		}
		for g, ok := range seen {
			if !ok {
				t.Fatalf("n=%d: global ID %d unassigned", n, g)
			}
		}
		if hi-lo > 1 {
			t.Errorf("n=%d: tile sizes unbalanced: min %d, max %d", n, lo, hi)
		}
	}
}

func TestBuildClampsShardCount(t *testing.T) {
	_, _, cfg := testWorkload(t)
	rp := data.GenerateMap(data.MapConfig{Cells: 4, TargetVerts: 12, Seed: 11})
	if got := Build("R", rp, 0, cfg).Shards(); got != 1 {
		t.Errorf("shards=0 clamps to %d, want 1", got)
	}
	if got := Build("R", rp, 100, cfg).Shards(); got != len(rp) {
		t.Errorf("shards=100 over %d objects clamps to %d", len(rp), got)
	}
	empty := Build("E", nil, 4, cfg)
	if empty.Shards() != 1 || empty.Objects() != 0 {
		t.Errorf("empty relation: %d tiles, %d objects, want one empty tile", empty.Shards(), empty.Objects())
	}
}

func TestFromRelationWrapsIdentity(t *testing.T) {
	rp, _, cfg := testWorkload(t)
	rel := multistep.NewRelation("R", rp, cfg)
	sh := FromRelation(rel)
	if sh.Shards() != 1 || sh.Objects() != len(rp) {
		t.Fatalf("FromRelation: %d tiles, %d objects", sh.Shards(), sh.Objects())
	}
	if sh.Tiles[0].Rel != rel {
		t.Error("FromRelation must share the relation, not copy it")
	}
	for i, g := range sh.Tiles[0].Global {
		if int(g) != i {
			t.Fatalf("global IDs not the identity: [%d] = %d", i, g)
		}
	}
	if sh.Fingerprint() != multistep.ConfigFingerprint(cfg) {
		t.Error("fingerprint disagrees with the relation's configuration")
	}
}

// TestMergePairs holds the merge of the sub-joins' runs to its
// definition — concatenate, sort, drop duplicates, cut — on unsorted runs
// that share pairs (which the disjoint partition never produces, but the
// merge must survive), at run counts from 0 to 40 and limits below, at
// and above the total. The merge is multistep.OrderPairs, writing a new
// response as shard.Join does and ordering one run in place as the solo
// multistep.Join does. A skewed answer, one A with 20,000 Bs, must take
// linear time: a sort that finishes each A's bucket by insertion would
// be quadratic there.
func TestMergePairs(t *testing.T) {
	const ids = 20
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		runs := make([][]multistep.Pair, rng.Intn(41))
		var all []multistep.Pair
		for k := range runs {
			for n := rng.Intn(30); n > 0; n-- {
				runs[k] = append(runs[k], multistep.Pair{A: int32(rng.Intn(ids)), B: int32(rng.Intn(ids))})
			}
			all = append(all, runs[k]...)
		}
		solo := slices.Clone(all)
		slices.SortFunc(all, multistep.ComparePairs)
		want := slices.Compact(all)
		for _, limit := range []int{-1, 0, 1, len(want) / 2, len(want), len(want) + 1} {
			w := want
			if limit >= 0 && limit < len(w) {
				w = w[:limit]
			}
			got := multistep.OrderPairs(runs, ids, ids, limit, nil)
			if !slices.Equal(got, w) || (len(solo) > 0 && cap(got) != len(w)) {
				t.Fatalf("trial %d, %d runs, limit %d: merged %v (capacity %d), want %v", trial, len(runs), limit, got, cap(got), w)
			}
			run := slices.Clone(solo)
			if got := multistep.OrderPairs([][]multistep.Pair{run}, ids, ids, limit, run); !slices.Equal(got, w) {
				t.Fatalf("trial %d, limit %d: the run ordered in place reads %v, want %v", trial, limit, got, w)
			}
		}
	}

	// The skewed answer against a uniform one of the same size, each
	// timed at its fastest of five.
	const n = 20000
	skewed, uniform := make([]multistep.Pair, n), make([]multistep.Pair, n)
	for i := range skewed {
		skewed[i] = multistep.Pair{A: 7, B: int32(n - 1 - i)}
		uniform[i] = multistep.Pair{A: int32(rng.Intn(n)), B: int32(rng.Intn(n))}
	}
	fastest := func(ps []multistep.Pair) (time.Duration, []multistep.Pair) {
		var best time.Duration
		var out []multistep.Pair
		for range 5 {
			start := time.Now()
			out = multistep.OrderPairs([][]multistep.Pair{ps[:n/2], ps[n/2:]}, n, n, -1, nil)
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best, out
	}
	tSkewed, got := fastest(skewed)
	for i, p := range got {
		if p != (multistep.Pair{A: 7, B: int32(i)}) {
			t.Fatalf("skewed answer: pair %d is %v", i, p)
		}
	}
	tUniform, _ := fastest(uniform)
	t.Logf("%d pairs: one A %v, uniform %v", n, tSkewed, tUniform)
	if tSkewed > 8*tUniform+2*time.Millisecond {
		t.Errorf("%d pairs of one A take %v, uniform ones %v: the merge is not linear in the skew", n, tSkewed, tUniform)
	}
}

// BenchmarkTiledQuery measures the scatter-gather cost of a tiled query
// on the four-way split of testWorkload: fanOut starts a goroutine per
// routed tile, whose fresh stack the unit grows. point/1-tile routes
// every query to exactly one tile; window queries (a tenth of the
// territory on a side) route to one to four, and tiles/op is their mean.
func BenchmarkTiledQuery(b *testing.B) {
	rp, _, cfg := testWorkload(b)
	r := Build("R", rp, 4, cfg)
	routed := func(q geom.Rect) int {
		n := 0
		for _, t := range r.Tiles {
			if t.MBR.Intersects(q) {
				n++
			}
		}
		return n
	}
	rng := rand.New(rand.NewSource(991))
	var points []multistep.Option
	for len(points) < 256 {
		p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		if routed(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}) == 1 {
			points = append(points, multistep.ForPoint(p))
		}
	}
	windows := make([]multistep.Option, 256)
	for i := range windows {
		x, y := rng.Float64()*0.9, rng.Float64()*0.9
		windows[i] = multistep.ForWindow(geom.Rect{MinX: x, MinY: y, MaxX: x + 0.1, MaxY: y + 0.1})
	}
	for _, c := range []struct {
		name    string
		targets []multistep.Option
	}{{"point/1-tile", points}, {"window", windows}} {
		b.Run(c.name, func(b *testing.B) {
			var tiles int
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				qr, err := Query(context.Background(), r, c.targets[i%len(c.targets)])
				if err != nil {
					b.Fatal(err)
				}
				tiles += len(qr.Stats.Tiles)
			}
			b.ReportMetric(float64(tiles)/float64(b.N), "tiles/op")
		})
	}
}
