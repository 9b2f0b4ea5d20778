package shard

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"spatialjoin/internal/multistep"
)

// memTileCache is an in-memory QueryTileCache for the shard-layer
// tests.
type memTileCache struct {
	mu        sync.Mutex
	queries   map[QueryTileKey]QueryTileResult
	queryHits int
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

// TestShardQueryTileCache: QueryCached serves repeated window, point
// and nearest queries from the per-tile cache with identical results.
func TestShardQueryTileCache(t *testing.T) {
	rp, _, cfg := testWorkload(t)
	r := Build("R", rp, 4, cfg)
	tc := &memTileCache{queries: make(map[QueryTileKey]QueryTileResult)}

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
