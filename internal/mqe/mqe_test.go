package mqe

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(100)
	for i := 0; i < 10; i++ {
		if !c.Put(fmt.Sprintf("k%d", i), i, 10) {
			t.Fatalf("Put k%d rejected", i)
		}
	}
	if got := c.Bytes(); got != 100 {
		t.Fatalf("Bytes = %d, want 100", got)
	}
	// Touch k0 so it becomes most recently used, then overflow: k1 must
	// be the victim, k0 must survive.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put("k10", 10, 10)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 should have been evicted as LRU")
	}
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 evicted despite recent use")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes != 100 || st.Entries != 10 {
		t.Fatalf("after eviction: bytes %d entries %d, want 100/10", st.Bytes, st.Entries)
	}
}

func TestCacheRejectsOversizedEntry(t *testing.T) {
	c := NewCache(64)
	c.Put("small", 1, 32)
	if c.Put("huge", 2, 65) {
		t.Fatal("entry larger than the budget must be rejected")
	}
	if _, ok := c.Get("small"); !ok {
		t.Fatal("rejected oversized Put must not evict existing entries")
	}
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized entry was cached")
	}
}

func TestCacheReplaceAdjustsBytes(t *testing.T) {
	c := NewCache(100)
	c.Put("k", "a", 40)
	c.Put("k", "b", 70)
	if got := c.Bytes(); got != 70 {
		t.Fatalf("Bytes after replace = %d, want 70", got)
	}
	v, ok := c.Get("k")
	if !ok || v.(string) != "b" {
		t.Fatalf("Get after replace = %v, %v", v, ok)
	}
}

// TestCachePutRankedKeepsHigherRank: a value never replaces one of a
// higher rank; one of an equal or higher rank does. GetRanked misses a
// value ranked below its bound.
func TestCachePutRankedKeepsHigherRank(t *testing.T) {
	c := NewCache(100)
	for _, tc := range []struct {
		val    string
		rank   int64
		stored bool
		want   string
	}{{"a", 5, true, "a"}, {"b", 3, false, "a"}, {"c", 5, true, "c"}, {"d", 9, true, "d"}} {
		if got := c.PutRanked("k", tc.val, 10, tc.rank); got != tc.stored {
			t.Errorf("PutRanked(%q, rank %d) = %t, want %t", tc.val, tc.rank, got, tc.stored)
		}
		if v, _ := c.Get("k"); v != tc.want {
			t.Errorf("after PutRanked(%q, rank %d): Get = %v, want %q", tc.val, tc.rank, v, tc.want)
		}
	}
	if v, ok := c.GetRanked("k", 10); ok {
		t.Errorf("GetRanked above the stored rank 9 = %v, want a miss", v)
	}
	if v, ok := c.GetRanked("k", 9); !ok || v != "d" {
		t.Errorf("GetRanked at the stored rank 9 = %v, %t, want d", v, ok)
	}
	if got := c.Bytes(); got != 10 {
		t.Fatalf("Bytes = %d, want 10", got)
	}
}

// TestCacheConcurrentFillKeepsBudget hammers the cache from many
// goroutines with random entry sizes and checks the byte budget is
// never exceeded — the ISSUE's "eviction keeps the byte budget under
// concurrent fill" proof, meaningful under -race.
func TestCacheConcurrentFillKeepsBudget(t *testing.T) {
	const budget = 4096
	c := NewCache(budget)
	var wg sync.WaitGroup
	var over atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("g%d-%d", g, rng.Intn(200))
				c.Put(key, i, int64(1+rng.Intn(300)))
				if b := c.Bytes(); b > budget {
					over.Store(b)
				}
				c.Get(key)
			}
		}(g)
	}
	wg.Wait()
	if b := over.Load(); b != 0 {
		t.Fatalf("byte budget exceeded under concurrent fill: observed %d > %d", b, budget)
	}
	if b := c.Bytes(); b > budget {
		t.Fatalf("final bytes %d > budget %d", b, budget)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("expected evictions under concurrent fill")
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	if c != NewCache(0) {
		t.Fatal("NewCache(0) should return nil")
	}
	if c.Put("k", 1, 1) {
		t.Fatal("nil cache retained an entry")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.Bytes() != 0 || c.Len() != 0 || c.Stats() != (CacheStats{}) {
		t.Fatal("nil cache stats not zero")
	}
}

func TestGroupCoalesces(t *testing.T) {
	var g Group
	var execs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const followers = 6
	var wg sync.WaitGroup
	results := make([]any, followers+1)
	flags := make([]bool, followers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], flags[0], _ = g.Do("k", func() (any, error) {
			execs.Add(1)
			close(started)
			<-release
			return 42, nil
		})
	}()
	<-started
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], flags[i], _ = g.Do("k", func() (any, error) {
				execs.Add(1)
				return 42, nil
			})
		}(i)
	}
	// Let the followers register against the in-flight call. Their Do
	// blocks on the leader, so all we need is for each goroutine to have
	// entered Do; polling the coalesce counter is deterministic here
	// because the leader cannot finish until release is closed.
	for g.Coalesced() < followers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Fatalf("fn executed %d times, want 1", n)
	}
	if flags[0] {
		t.Fatal("leader reported coalesced")
	}
	for i := 1; i <= followers; i++ {
		if !flags[i] {
			t.Fatalf("follower %d not reported coalesced", i)
		}
		if results[i] != 42 {
			t.Fatalf("follower %d result = %v", i, results[i])
		}
	}
	// The key must be forgotten after completion: a fresh call executes.
	_, coalesced, _ := g.Do("k", func() (any, error) { execs.Add(1); return 7, nil })
	if coalesced || execs.Load() != 2 {
		t.Fatal("completed flight was not forgotten")
	}
}

func TestGroupPropagatesError(t *testing.T) {
	var g Group
	wantErr := errors.New("boom")
	_, _, err := g.Do("k", func() (any, error) { return nil, wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}
