package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// TestList pins the stack's contract: last put, first got; a new zero
// object when empty; an object over maxBytes or beyond maxLen dropped;
// and nothing emptied by a garbage collection.
func TestList(t *testing.T) {
	var l List[[]int]
	if x := l.Get(); x == nil || *x != nil {
		t.Fatalf("Get on an empty list = %v, want a new zero object", x)
	}
	a, b := &[]int{1}, &[]int{2}
	l.Put(a, 8)
	l.Put(b, 8)
	runtime.GC()
	runtime.GC()
	if got := l.Get(); got != b {
		t.Fatalf("Get = %v, want the object put last", got)
	}
	if got := l.Get(); got != a {
		t.Fatalf("Get = %v, want the object put first", got)
	}

	l.Put(a, maxBytes+1)
	if got := l.Get(); got == a {
		t.Fatal("an object retaining more than maxBytes was kept")
	}
	for range maxLen + 1 {
		l.Put(new([]int), 0)
	}
	if n := len(l.items); n != maxLen {
		t.Fatalf("the list holds %d objects, want the cap %d", n, maxLen)
	}
}

// TestListConcurrent hands objects between goroutines: each object is
// owned by one goroutine at a time (run with -race).
func TestListConcurrent(t *testing.T) {
	var l List[int]
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 1000 {
				x := l.Get()
				*x = g*1000 + i
				if *x != g*1000+i {
					t.Errorf("object changed while owned")
				}
				l.Put(x, 8)
			}
		}()
	}
	wg.Wait()
}
