// Package freelist keeps scratch objects for reuse between calls: a
// bounded last-in-first-out stack under a mutex.
//
// It replaces sync.Pool where a warmed caller's allocation count must
// not depend on the garbage collector: a collection empties a sync.Pool
// (two in a row empty its victim cache too), and the next caller then
// regrows its scratch from nothing. Nothing empties a List. Which object
// a caller gets still depends on the order of earlier puts, so objects
// that serve uses of different sizes must keep their capacity, or be
// sized for the largest use, to stop growing once warm.
package freelist

import "sync"

const (
	// maxLen caps the objects one list keeps; a put beyond it drops the
	// object.
	maxLen = 64
	// maxBytes is the largest object, by its owner's count of the bytes
	// it retains, that a list keeps: one large answer must not pin its
	// buffers for the process lifetime.
	maxBytes = 1 << 20
)

// List is a stack of reusable *T. The zero value is an empty list, safe
// for concurrent use.
type List[T any] struct {
	mu    sync.Mutex
	items []*T
}

// Get pops the object put last, or returns a new zero T when the list is
// empty. The caller owns it until it puts it back.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return new(T)
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return x
}

// Put pushes x for reuse, unless the list is full or size, the bytes x
// retains, exceeds maxBytes. x must not be used after Put.
func (l *List[T]) Put(x *T, size int) {
	if size > maxBytes {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) < maxLen {
		l.items = append(l.items, x)
	}
}
