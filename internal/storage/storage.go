// Package storage is the secondary-storage layer of the paper's
// experiments: page-granular access through a replacement-policy buffer
// with page-access counting. The paper's I/O metric is the number of page
// accesses that miss the buffer (sections 3.4 and 5: page sizes of 2 and
// 4 KB, an LRU buffer of 128 KB, 10 ms per access).
//
// BufferManager is the in-memory counting simulator that reproduces the
// paper's metric exactly without any disk; every R*-tree runs on one.
// A Session privatizes a BufferManager's replacement state for one query,
// so many queries can share a tree concurrently (see DESIGN.md at the
// repository root, "Substitutions").
package storage

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// PageID identifies one page of the store.
type PageID int32

// Accessor is the page-access face of one query: every node visit of a
// tree traversal is routed through an Accessor, which decides hit or
// miss and counts both. A BufferManager is itself an Accessor — the
// shared, single-query mode in which one traversal at a time mutates the
// buffer directly, reproducing the paper's sequential accounting. A
// Session is the per-query alternative: a private replacement simulation
// seeded from a snapshot of the buffer, so N concurrent queries each
// carry their own isolated accounting (see NewSession).
type Accessor interface {
	// Access touches a page: a buffered page is a hit, an unbuffered page
	// is faulted in (a miss), evicting the policy's victim when full.
	Access(id PageID)
	// Hits returns the number of buffered accesses.
	Hits() int64
	// Misses returns the number of accesses that went to disk — the
	// paper's page-access count.
	Misses() int64
	// Accesses returns the total number of page touches.
	Accesses() int64
}

// Policy selects the buffer replacement strategy. The paper uses LRU; the
// alternatives exist for the buffer-policy ablation.
type Policy int

// Replacement policies.
const (
	LRU   Policy = iota // evict the least recently used page
	FIFO                // evict the oldest page regardless of reuse
	Clock               // second-chance approximation of LRU
)

// ParsePolicy parses a policy name (case-insensitively): "lru", "fifo"
// or "clock".
func ParsePolicy(s string) (Policy, error) {
	switch {
	case strings.EqualFold(s, "lru"):
		return LRU, nil
	case strings.EqualFold(s, "fifo"):
		return FIFO, nil
	case strings.EqualFold(s, "clock"):
		return Clock, nil
	}
	return 0, fmt.Errorf("storage: unknown replacement policy %q", s)
}

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Clock:
		return "Clock"
	default:
		return "Policy?"
	}
}

// BufferManager is a page buffer with hit/miss accounting. A miss models
// one disk access.
//
// The replacement structures are single-writer (one query at a time in
// shared mode, or one private simulation per Session), but the hit/miss
// counters are atomics: readers (statistics endpoints polling a shared
// buffer's totals) never need the owner's lock.
type BufferManager struct {
	frames int
	policy Policy
	table  map[PageID]*frameNode
	head   *frameNode // most recently used / newest
	tail   *frameNode // least recently used / oldest
	hand   *frameNode // clock hand (Clock policy)
	spare  *frameNode // the last evicted node, reused by the next miss

	hits   atomic.Int64
	misses atomic.Int64
}

// BufferManager implements Accessor.
var _ Accessor = (*BufferManager)(nil)

type frameNode struct {
	id         PageID
	prev, next *frameNode
	referenced bool // Clock policy second-chance bit
}

// NewBufferManagerPolicy sizes a buffer with an explicit replacement
// policy.
func NewBufferManagerPolicy(bufferBytes, pageSize int, policy Policy) *BufferManager {
	return newBufferFrames(bufferBytes/pageSize, policy)
}

// newBufferFrames sizes a buffer by frame count directly (at least one
// frame).
func newBufferFrames(frames int, policy Policy) *BufferManager {
	if frames < 1 {
		frames = 1
	}
	return &BufferManager{
		frames: frames,
		policy: policy,
		table:  make(map[PageID]*frameNode, frames),
	}
}

// Policy returns the replacement policy.
func (b *BufferManager) Policy() Policy { return b.policy }

// Frames returns the buffer capacity in pages.
func (b *BufferManager) Frames() int { return b.frames }

// Access touches a page: a buffered page is a hit (LRU moves it to the
// front, Clock sets its reference bit, FIFO does nothing); an unbuffered
// page is faulted in, evicting the policy's victim when the buffer is
// full (miss).
func (b *BufferManager) Access(id PageID) {
	if n, ok := b.table[id]; ok {
		b.hits.Add(1)
		switch b.policy {
		case LRU:
			b.moveToFront(n)
		case Clock:
			n.referenced = true
		}
		return
	}
	b.misses.Add(1)
	n := b.spare
	if n != nil {
		b.spare = nil
		*n = frameNode{id: id}
	} else {
		n = &frameNode{id: id}
	}
	b.table[id] = n
	// Push, then evict: Clock's sweep may spare the old pages and evict
	// the new one (TestSingleFrameClockReferencedEviction).
	b.pushFront(n)
	if len(b.table) > b.frames {
		b.evict()
	}
}

// evict removes one page according to the policy and keeps its node,
// unlinked and out of the table, as the spare for the next miss.
func (b *BufferManager) evict() {
	switch b.policy {
	case Clock:
		// Sweep from the tail, granting one second chance per referenced
		// frame.
		if b.hand == nil {
			b.hand = b.tail
		}
		for {
			victim := b.hand
			if victim == nil {
				victim = b.tail
			}
			next := victim.prev // sweep from oldest toward newest
			if !victim.referenced {
				b.hand = next
				b.unlink(victim)
				delete(b.table, victim.id)
				b.spare = victim
				return
			}
			victim.referenced = false
			if next == nil {
				next = b.tail
			}
			b.hand = next
		}
	default: // LRU and FIFO both evict the tail (least recent / oldest)
		evict := b.tail
		b.unlink(evict)
		delete(b.table, evict.id)
		b.spare = evict
	}
}

// Hits returns the number of buffered accesses.
func (b *BufferManager) Hits() int64 { return b.hits.Load() }

// Misses returns the number of accesses that went to disk — the paper's
// page-access count.
func (b *BufferManager) Misses() int64 { return b.misses.Load() }

// Accesses returns the total number of page touches.
func (b *BufferManager) Accesses() int64 { return b.hits.Load() + b.misses.Load() }

// ResetCounters zeroes the statistics without dropping buffer contents,
// so a measurement can exclude index construction.
func (b *BufferManager) ResetCounters() {
	b.hits.Store(0)
	b.misses.Store(0)
}

// Clear drops all buffered pages and zeroes the statistics. The frame
// table keeps its storage.
func (b *BufferManager) Clear() {
	clear(b.table)
	b.head, b.tail, b.hand = nil, nil, nil
	b.hits.Store(0)
	b.misses.Store(0)
}

// FrameState is the persisted state of one buffered page.
type FrameState struct {
	ID         PageID
	Referenced bool // Clock second-chance bit
}

// BufferState is a snapshot of the buffer contents: the resident pages in
// recency order plus the clock hand. It captures everything the
// replacement policies consult, so restoring it resumes the exact
// eviction behavior; the hit/miss counters are not part of the snapshot.
type BufferState struct {
	// Frames lists the resident pages from oldest (the eviction end) to
	// newest.
	Frames []FrameState
	// Hand is the index into Frames of the clock hand, or -1 when the
	// hand is unset (also for the non-Clock policies).
	Hand int
}

// State snapshots the buffer contents (see BufferState).
func (b *BufferManager) State() BufferState {
	st := BufferState{Frames: make([]FrameState, 0, len(b.table)), Hand: -1}
	for n := b.tail; n != nil; n = n.prev {
		if n == b.hand {
			st.Hand = len(st.Frames)
		}
		st.Frames = append(st.Frames, FrameState{ID: n.id, Referenced: n.referenced})
	}
	return st
}

// Restore replaces the buffer contents with a snapshot taken by State.
// The counters are left untouched; frames beyond the buffer capacity are
// ignored (newest kept).
func (b *BufferManager) Restore(st BufferState) {
	hits, misses := b.hits.Load(), b.misses.Load()
	b.Clear()
	b.hits.Store(hits)
	b.misses.Store(misses)
	drop := max(0, len(st.Frames)-b.frames) // oldest frames beyond capacity
	nodes := make([]frameNode, len(st.Frames)-drop)
	for i, f := range st.Frames {
		if i < drop {
			continue
		}
		if _, dup := b.table[f.ID]; dup {
			continue
		}
		n := &nodes[i-drop]
		*n = frameNode{id: f.ID, referenced: f.Referenced}
		b.table[f.ID] = n
		b.pushFront(n) // oldest first: each push becomes the new head
		if i == st.Hand {
			b.hand = n
		}
	}
}

func (b *BufferManager) pushFront(n *frameNode) {
	n.prev = nil
	n.next = b.head
	if b.head != nil {
		b.head.prev = n
	}
	b.head = n
	if b.tail == nil {
		b.tail = n
	}
}

func (b *BufferManager) unlink(n *frameNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		b.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (b *BufferManager) moveToFront(n *frameNode) {
	if b.head == n {
		return
	}
	b.unlink(n)
	b.pushFront(n)
}
