// Package mqe implements the multi-query execution primitives used by
// the serving layer: a byte-bounded LRU result cache and single-flight
// coalescing of identical in-flight requests.
//
// The package is deliberately storage- and query-agnostic: keys are
// opaque strings (the serving layer normalizes them from relation
// fingerprints, predicate, target and plan mode), values are opaque
// interfaces, and entry sizes are supplied by the caller. That keeps
// mqe reusable for both whole-response caching and per-tile sub-result
// caching, which share one byte budget.
package mqe

import (
	"container/list"
	"math"
	"sync"
)

// Cache is a size-bounded LRU cache. The bound is in bytes, not
// entries: every Put carries the caller's estimate of the entry's
// retained size, and the cache evicts least-recently-used entries
// until the running total fits the budget again. An entry larger than
// the whole budget is rejected outright rather than evicting
// everything else.
//
// Cache is safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits      int64
	misses    int64
	evictions int64
}

type cacheEntry struct {
	key   string
	val   any
	bytes int64
	rank  int64
}

// NewCache returns a cache bounded to maxBytes. maxBytes <= 0 returns
// nil: a nil *Cache is a valid always-miss cache, so callers can thread
// one pointer through without guarding every call site.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{
		max:   maxBytes,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the value cached under key and marks it most recently
// used. The second result reports whether the key was present.
func (c *Cache) Get(key string) (any, bool) { return c.GetRanked(key, math.MinInt64) }

// GetRanked is Get for values that supersede one another (see
// PutRanked): a value of a rank below minRank counts, and is reported,
// as a miss.
func (c *Cache) GetRanked(key string, minRank int64) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || el.Value.(*cacheEntry).rank < minRank {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores val under key, charging size bytes against the budget,
// and evicts LRU entries until the total fits. Re-putting an existing
// key replaces its value and size. Entries larger than the budget are
// dropped (the cache is left untouched). It reports whether the entry
// was retained. Put stores rank 0 (see PutRanked).
func (c *Cache) Put(key string, val any, size int64) bool { return c.PutRanked(key, val, size, 0) }

// PutRanked is Put for values that supersede one another, such as
// answers computed to different lengths: it replaces the value stored
// under key only when rank is at least that value's rank, and otherwise
// leaves the cache untouched and reports false.
func (c *Cache) PutRanked(key string, val any, size, rank int64) bool {
	if c == nil {
		return false
	}
	if size < 0 {
		size = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.max {
		return false
	}
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		if rank < ent.rank {
			return false
		}
		c.bytes += size - ent.bytes
		ent.val, ent.bytes, ent.rank = val, size, rank
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val, bytes: size, rank: rank})
		c.bytes += size
	}
	for c.bytes > c.max {
		c.evictOldest()
	}
	return true
}

// evictOldest removes the LRU entry. Caller holds c.mu.
func (c *Cache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.bytes -= ent.bytes
	c.evictions++
}

// Bytes returns the current charged size of all entries.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// CacheStats is a point-in-time snapshot of the cache counters, shaped
// for direct JSON exposure on the serving stats endpoint.
type CacheStats struct {
	MaxBytes  int64 `json:"maxBytes"`
	Bytes     int64 `json:"bytes"`
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		MaxBytes:  c.max,
		Bytes:     c.bytes,
		Entries:   len(c.items),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
