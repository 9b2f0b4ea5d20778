package storage

import (
	"sync"
	"testing"
)

// accessPattern is a deterministic page sequence with reuse, designed to
// produce a non-trivial hit/miss mix on a small buffer.
func accessPattern(n int) []PageID {
	seq := make([]PageID, 0, n)
	for i := 0; i < n; i++ {
		seq = append(seq, PageID((i*7+3)%11), PageID(i%5))
	}
	return seq
}

func TestSessionCountersMatchSharedReplay(t *testing.T) {
	for _, policy := range []Policy{LRU, FIFO, Clock} {
		store := newBufferFrames(4, policy)
		// Warm the store so sessions snapshot a non-empty state.
		for _, id := range accessPattern(20) {
			store.Access(id)
		}
		warm := store.State()
		seq := accessPattern(50)

		// Reference: a shared-mode replay from the warmed state.
		ref := newBufferFrames(4, policy)
		ref.Restore(warm)
		for _, id := range seq {
			ref.Access(id)
		}

		sess := NewSession(store)
		for _, id := range seq {
			sess.Access(id)
		}
		if sess.Hits() != ref.Hits() || sess.Misses() != ref.Misses() {
			t.Errorf("%v: session hits/misses %d/%d, shared replay %d/%d",
				policy, sess.Hits(), sess.Misses(), ref.Hits(), ref.Misses())
		}
		if sess.Accesses() != int64(len(seq)) {
			t.Errorf("%v: accesses %d, want %d", policy, sess.Accesses(), len(seq))
		}
		// The shared store is untouched by the session.
		if got := store.State(); !bufferStatesEqual(got, warm) {
			t.Errorf("%v: session perturbed the shared buffer state", policy)
		}
	}
}

func bufferStatesEqual(a, b BufferState) bool {
	if a.Hand != b.Hand || len(a.Frames) != len(b.Frames) {
		return false
	}
	for i := range a.Frames {
		if a.Frames[i] != b.Frames[i] {
			return false
		}
	}
	return true
}

func TestSessionsAreIsolated(t *testing.T) {
	store := newBufferFrames(3, LRU)
	seqA := accessPattern(40)
	seqB := make([]PageID, len(seqA))
	for i, id := range seqA {
		seqB[i] = id + 100 // disjoint page space
	}

	solo := NewSession(store)
	for _, id := range seqA {
		solo.Access(id)
	}

	// Interleave two sessions; each must report exactly its solo counters.
	a, b := NewSession(store), NewSession(store)
	for i := range seqA {
		a.Access(seqA[i])
		b.Access(seqB[i])
	}
	if a.Hits() != solo.Hits() || a.Misses() != solo.Misses() {
		t.Errorf("interleaved session diverged: %d/%d vs solo %d/%d",
			a.Hits(), a.Misses(), solo.Hits(), solo.Misses())
	}
	if b.Hits() != solo.Hits() || b.Misses() != solo.Misses() {
		t.Errorf("disjoint-page session diverged: %d/%d vs solo %d/%d",
			b.Hits(), b.Misses(), solo.Hits(), solo.Misses())
	}
}

func TestSessionResetCounters(t *testing.T) {
	store := newBufferFrames(2, LRU)
	sess := NewSession(store)
	sess.Access(1)
	sess.Access(1)
	sess.ResetCounters()
	if sess.Hits() != 0 || sess.Misses() != 0 {
		t.Fatal("ResetCounters must zero the session counters")
	}
	sess.Access(1)
	if sess.Hits() != 1 || sess.Misses() != 0 {
		t.Error("simulated buffer contents must survive ResetCounters")
	}
}

// TestSessionsConcurrent runs eight sessions on one warmed buffer at
// once (under -race in CI): each must report the solo session's
// counters, and none may touch the shared buffer's counters or contents.
func TestSessionsConcurrent(t *testing.T) {
	store := newBufferFrames(4, LRU)
	for _, id := range accessPattern(20) {
		store.Access(id)
	}
	store.ResetCounters()
	warm := store.State()
	seq := accessPattern(200)

	solo := NewSession(store)
	for _, id := range seq {
		solo.Access(id)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := NewSession(store)
			for _, id := range seq {
				sess.Access(id)
			}
			if sess.Hits() != solo.Hits() || sess.Misses() != solo.Misses() {
				t.Errorf("goroutine %d: hits/misses %d/%d, want %d/%d",
					g, sess.Hits(), sess.Misses(), solo.Hits(), solo.Misses())
			}
		}(g)
	}
	wg.Wait()

	if store.Accesses() != 0 {
		t.Errorf("sessions must not touch the shared counters (accesses %d)", store.Accesses())
	}
	if !bufferStatesEqual(store.State(), warm) {
		t.Error("sessions perturbed the shared buffer state")
	}
}
