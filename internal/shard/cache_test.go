package shard

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"spatialjoin/internal/multistep"
)

// memTileCache is an in-memory implementation of both tile-cache
// interfaces for the shard-layer tests.
type memTileCache struct {
	mu        sync.Mutex
	joins     map[JoinTileKey]JoinTileResult
	queries   map[QueryTileKey]QueryTileResult
	joinHits  int
	queryHits int
}

func newMemTileCache() *memTileCache {
	return &memTileCache{
		joins:   make(map[JoinTileKey]JoinTileResult),
		queries: make(map[QueryTileKey]QueryTileResult),
	}
}

func (c *memTileCache) GetJoinTile(k JoinTileKey) (JoinTileResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.joins[k]
	if ok {
		c.joinHits++
	}
	return r, ok
}

func (c *memTileCache) PutJoinTile(k JoinTileKey, r JoinTileResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.joins[k] = r
}

func (c *memTileCache) GetQueryTile(k QueryTileKey) (QueryTileResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.queries[k]
	if ok {
		c.queryHits++
	}
	return r, ok
}

func (c *memTileCache) PutQueryTile(k QueryTileKey, r QueryTileResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queries[k] = r
}

// TestShardJoinTileCache: a second run of the same joins is served
// entirely from the tile-pair cache with identical results, and a join
// variant that misses the whole-join identity still hits the
// per-tile-pair entries it shares. An entry holds its tile pair's run of
// the response — global IDs, (A, B)-sorted — which the merge of a hit
// reads as it reads a fresh sub-join's.
func TestShardJoinTileCache(t *testing.T) {
	rp, sp, cfg := testWorkload(t)
	r := Build("R", rp, 3, cfg)
	s := Build("S", sp, 3, cfg)
	tc := newMemTileCache()
	joins := [][]multistep.Option{
		{multistep.WithPredicate(multistep.Intersects())},
		{multistep.WithPredicate(multistep.Contains())},
	}
	type outcome struct {
		pairs []multistep.Pair
		stats JoinStats
	}
	run := func(opts []multistep.Option) outcome {
		t.Helper()
		pairs, st, err := JoinCached(context.Background(), r, s, tc, opts...)
		if err != nil {
			t.Fatalf("JoinCached: %v", err)
		}
		return outcome{pairs, st}
	}

	var first []outcome
	for _, opts := range joins {
		first = append(first, run(opts))
	}
	if tc.joinHits != 0 {
		t.Fatalf("cold joins hit the cache %d times", tc.joinHits)
	}
	entries := len(tc.joins)
	if entries == 0 {
		t.Fatal("cold joins cached nothing")
	}

	for k, e := range tc.joins {
		rt, st := r.Tiles[k.RTile], s.Tiles[k.STile]
		var want []multistep.Pair
		for _, p := range first[slices.Index([]string{"intersects", "contains"}, k.Pred)].pairs {
			if slices.Contains(rt.Global, p.A) && slices.Contains(st.Global, p.B) {
				want = append(want, p)
			}
		}
		if !slices.Equal(e.Pairs, want) {
			t.Errorf("entry %+v holds %d pairs, want the %d of the response in its tiles, in response order", k, len(e.Pairs), len(want))
		}
	}
	for i, opts := range joins {
		if !reflect.DeepEqual(run(opts), first[i]) {
			t.Errorf("join %d: cached run differs from cold run", i)
		}
	}
	if tc.joinHits != entries {
		t.Fatalf("warm joins hit %d tile entries, want %d", tc.joinHits, entries)
	}

	// A different limit is a different full request but the same
	// tile-pair identity: everything replays from cache.
	hitsBefore := tc.joinHits
	third := run([]multistep.Option{multistep.WithPredicate(multistep.Intersects()), multistep.WithLimit(3)})
	if tc.joinHits == hitsBefore {
		t.Fatal("limit variant did not reuse tile-pair entries")
	}
	if len(third.pairs) != 3 {
		t.Fatalf("limit variant returned %d pairs, want 3", len(third.pairs))
	}
	if !reflect.DeepEqual(third.pairs, first[0].pairs[:3]) {
		t.Fatal("limit variant is not the global sorted prefix of the full result")
	}
}

// TestShardQueryTileCache: QueryCached serves repeated window, point
// and nearest queries from the per-tile cache with identical results.
func TestShardQueryTileCache(t *testing.T) {
	rp, _, cfg := testWorkload(t)
	r := Build("R", rp, 4, cfg)
	tc := newMemTileCache()

	queries := [][]multistep.Option{
		{multistep.ForWindow(r.MBR())},
		{multistep.ForPoint(r.MBR().Center())},
		{multistep.ForNearest(r.MBR().Center(), 5)},
	}
	var first []QueryResult
	for _, q := range queries {
		qr, err := QueryCached(context.Background(), r, tc, q...)
		if err != nil {
			t.Fatalf("cold QueryCached: %v", err)
		}
		first = append(first, qr)
	}
	if tc.queryHits != 0 {
		t.Fatalf("cold queries hit the cache %d times", tc.queryHits)
	}
	entries := len(tc.queries)
	if entries == 0 {
		t.Fatal("cold queries cached nothing")
	}
	for i, q := range queries {
		qr, err := QueryCached(context.Background(), r, tc, q...)
		if err != nil {
			t.Fatalf("warm QueryCached: %v", err)
		}
		if !reflect.DeepEqual(qr, first[i]) {
			t.Errorf("query %d: cached result differs from cold result", i)
		}
	}
	if tc.queryHits != entries {
		t.Fatalf("warm queries hit %d tile entries, want %d", tc.queryHits, entries)
	}

	// The uncached entry point must match the cached results too.
	for i, q := range queries {
		qr, err := Query(context.Background(), r, q...)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		if !reflect.DeepEqual(qr, first[i]) {
			t.Errorf("query %d: plain Query differs from QueryCached", i)
		}
	}
}
