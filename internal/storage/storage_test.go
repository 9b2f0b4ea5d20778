package storage

import "testing"

func TestBufferBasics(t *testing.T) {
	b := NewBufferManagerPolicy(4096, 1024, LRU) // 4 frames
	if b.Frames() != 4 {
		t.Fatalf("Frames = %d, want 4", b.Frames())
	}
	for i := 0; i < 4; i++ {
		b.Access(PageID(i))
	}
	if b.Misses() != 4 || b.Hits() != 0 {
		t.Fatalf("cold accesses: misses=%d hits=%d", b.Misses(), b.Hits())
	}
	// Re-access: all hits.
	for i := 0; i < 4; i++ {
		b.Access(PageID(i))
	}
	if b.Hits() != 4 {
		t.Fatalf("warm accesses: hits=%d, want 4", b.Hits())
	}
	if b.Accesses() != 8 {
		t.Fatalf("Accesses = %d, want 8", b.Accesses())
	}
}

func TestBufferEvictsLRU(t *testing.T) {
	b := NewBufferManagerPolicy(2048, 1024, LRU) // 2 frames
	b.Access(1)
	b.Access(2)
	b.Access(1) // 1 is now most recent
	b.Access(3) // evicts 2
	b.ResetCounters()
	b.Access(1)
	if b.Misses() != 0 {
		t.Error("page 1 must still be buffered")
	}
	b.Access(2)
	if b.Misses() != 1 {
		t.Error("page 2 must have been evicted")
	}
}

func TestBufferSingleFrame(t *testing.T) {
	b := NewBufferManagerPolicy(100, 1024, LRU) // under one page: clamped to 1 frame
	if b.Frames() != 1 {
		t.Fatalf("Frames = %d, want 1", b.Frames())
	}
	b.Access(1)
	b.Access(2)
	b.Access(1)
	if b.Misses() != 3 {
		t.Errorf("alternating pages through 1 frame: misses=%d, want 3", b.Misses())
	}
}

func TestBufferClearAndReset(t *testing.T) {
	b := NewBufferManagerPolicy(4096, 1024, LRU)
	b.Access(1)
	b.Access(1)
	b.ResetCounters()
	if b.Hits() != 0 || b.Misses() != 0 {
		t.Error("ResetCounters must zero stats")
	}
	b.Access(1)
	if b.Hits() != 1 {
		t.Error("ResetCounters must keep buffer contents")
	}
	b.Clear()
	b.Access(1)
	if b.Misses() != 1 {
		t.Error("Clear must drop buffer contents")
	}
}

func TestFIFODoesNotPromoteOnHit(t *testing.T) {
	b := NewBufferManagerPolicy(2048, 1024, FIFO) // 2 frames
	b.Access(1)
	b.Access(2)
	b.Access(1) // hit, but FIFO keeps 1 the oldest
	b.Access(3) // evicts 1 (oldest), not 2
	b.ResetCounters()
	b.Access(2)
	if b.Misses() != 0 {
		t.Error("page 2 must still be buffered under FIFO")
	}
	b.Access(1)
	if b.Misses() != 1 {
		t.Error("page 1 must have been evicted under FIFO despite the hit")
	}
	if b.Policy() != FIFO || b.Policy().String() != "FIFO" {
		t.Error("policy accessors wrong")
	}
}

func TestClockGrantsSecondChance(t *testing.T) {
	b := NewBufferManagerPolicy(2048, 1024, Clock) // 2 frames
	b.Access(1)
	b.Access(2)
	b.Access(1) // sets 1's reference bit
	b.Access(3) // clock sweeps: 1 referenced → spared; evicts 2
	b.ResetCounters()
	b.Access(1)
	if b.Misses() != 0 {
		t.Error("referenced page 1 must survive the clock sweep")
	}
	b.Access(2)
	if b.Misses() != 1 {
		t.Error("unreferenced page 2 must have been evicted")
	}
}

func TestClockTerminatesWhenAllReferenced(t *testing.T) {
	b := NewBufferManagerPolicy(3072, 1024, Clock) // 3 frames
	for _, id := range []PageID{1, 2, 3} {
		b.Access(id)
		b.Access(id) // set every reference bit
	}
	b.Access(4) // must clear bits and still evict something
	if len(b.table) != 3 {
		t.Fatalf("buffer holds %d frames, want 3", len(b.table))
	}
}

func TestPoliciesAgreeOnColdMisses(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, Clock} {
		b := NewBufferManagerPolicy(4096, 1024, pol)
		for i := 0; i < 16; i++ {
			b.Access(PageID(i))
		}
		if b.Misses() != 16 {
			t.Errorf("%v: cold misses = %d, want 16", pol, b.Misses())
		}
	}
}

func TestSingleFrameAllPolicies(t *testing.T) {
	// One frame: every access to a different page evicts the previous
	// one, under every policy, and no sweep or list operation may hang
	// or corrupt the frame table.
	for _, pol := range []Policy{LRU, FIFO, Clock} {
		b := NewBufferManagerPolicy(1024, 1024, pol)
		if b.Frames() != 1 {
			t.Fatalf("%v: Frames = %d, want 1", pol, b.Frames())
		}
		for round := 0; round < 3; round++ {
			for id := PageID(1); id <= 3; id++ {
				b.Access(id)
			}
		}
		if len(b.table) != 1 {
			t.Errorf("%v: %d resident pages in a 1-frame buffer", pol, len(b.table))
		}
		if b.Misses() != 9 {
			t.Errorf("%v: misses = %d, want 9 (no page can survive)", pol, b.Misses())
		}
	}
}

func TestSingleFrameClockReferencedEviction(t *testing.T) {
	// One frame, resident page referenced: the sweep clears its bit,
	// moves on, and evicts the just-faulted page instead — the incoming
	// page never becomes resident. This pins down the sweep's defined
	// behavior at its smallest size.
	b := NewBufferManagerPolicy(1024, 1024, Clock)
	b.Access(1)
	b.Access(1) // sets 1's reference bit
	b.Access(2) // sweep: 1 referenced → spared; the new page 2 is evicted
	b.ResetCounters()
	b.Access(1)
	if b.Misses() != 0 {
		t.Error("page 1 must have survived the sweep")
	}
	b.Access(2)
	if b.Misses() != 1 {
		t.Error("page 2 must not be resident")
	}
}

func TestClockHandSurvivesClear(t *testing.T) {
	// The hand must not dangle into freed frames after Clear: a full
	// refill and eviction cycle after Clear must behave like a fresh
	// buffer.
	b := NewBufferManagerPolicy(2048, 1024, Clock) // 2 frames
	for id := PageID(1); id <= 5; id++ {
		b.Access(id) // force sweeps so the hand points somewhere
	}
	b.Clear()
	if b.hand != nil {
		t.Fatal("Clear must reset the clock hand")
	}
	b.Access(10)
	b.Access(11)
	b.Access(10) // reference 10
	b.Access(12) // sweep: spares 10, evicts 11
	b.ResetCounters()
	b.Access(10)
	if b.Misses() != 0 {
		t.Error("referenced page 10 must survive the post-Clear sweep")
	}
}

func TestClockHandValidAcrossEvictionSweeps(t *testing.T) {
	// Repeated sweeps: the hand must always point at a live frame (or
	// nil), never at an evicted one.
	b := NewBufferManagerPolicy(3072, 1024, Clock) // 3 frames
	for i := 0; i < 200; i++ {
		b.Access(PageID(i % 7))
		if i%3 == 0 {
			b.Access(PageID(i % 7)) // sprinkle reference bits
		}
		if b.hand != nil {
			if _, live := b.table[b.hand.id]; !live {
				t.Fatalf("after access %d: clock hand points at evicted page %d", i, b.hand.id)
			}
		}
		if len(b.table) > b.Frames() {
			t.Fatalf("after access %d: %d resident pages exceed %d frames", i, len(b.table), b.Frames())
		}
	}
}

func TestFIFOvsLRUDivergence(t *testing.T) {
	// Scripted trace where re-referencing a page saves it under LRU but
	// not under FIFO: after touching 1,2 then re-touching 1, page 3
	// evicts 2 under LRU but 1 under FIFO, and the tails of the trace
	// diverge in hit counts.
	trace := []PageID{1, 2, 1, 3, 1, 2}
	run := func(pol Policy) (hits, misses int64) {
		b := NewBufferManagerPolicy(2048, 1024, pol) // 2 frames
		for _, id := range trace {
			b.Access(id)
		}
		return b.Hits(), b.Misses()
	}
	lruHits, lruMisses := run(LRU)
	fifoHits, fifoMisses := run(FIFO)
	// LRU: 1m 2m 1h 3m(evict 2) 1h 2m → 2 hits, 4 misses.
	if lruHits != 2 || lruMisses != 4 {
		t.Errorf("LRU: %d hits %d misses, want 2/4", lruHits, lruMisses)
	}
	// FIFO: 1m 2m 1h 3m(evict 1) 1m(evict 2) 2m → 1 hit, 5 misses.
	if fifoHits != 1 || fifoMisses != 5 {
		t.Errorf("FIFO: %d hits %d misses, want 1/5", fifoHits, fifoMisses)
	}
	if lruHits <= fifoHits {
		t.Error("trace must favor LRU over FIFO")
	}
}

func TestStateRestoreRoundTrip(t *testing.T) {
	// State/Restore must reproduce the exact eviction behavior: run a
	// prefix, snapshot, run the suffix; then restore the snapshot into
	// a fresh buffer and run the same suffix — identical hits/misses.
	prefix := []PageID{1, 2, 3, 1, 4, 2, 5, 1}
	suffix := []PageID{2, 6, 1, 3, 4, 5, 1, 2, 7, 6}
	for _, pol := range []Policy{LRU, FIFO, Clock} {
		b := NewBufferManagerPolicy(3072, 1024, pol) // 3 frames
		for _, id := range prefix {
			b.Access(id)
		}
		st := b.State()
		b.ResetCounters()
		for _, id := range suffix {
			b.Access(id)
		}
		wantH, wantM := b.Hits(), b.Misses()

		fresh := NewBufferManagerPolicy(3072, 1024, pol)
		fresh.Restore(st)
		for _, id := range suffix {
			fresh.Access(id)
		}
		if fresh.Hits() != wantH || fresh.Misses() != wantM {
			t.Errorf("%v: restored replay %d/%d, want %d/%d", pol, fresh.Hits(), fresh.Misses(), wantH, wantM)
		}
	}
}

func TestRestoreDropsOverflowFrames(t *testing.T) {
	st := BufferState{Hand: -1}
	for id := PageID(1); id <= 8; id++ {
		st.Frames = append(st.Frames, FrameState{ID: id})
	}
	b := NewBufferManagerPolicy(2048, 1024, LRU) // 2 frames
	b.Restore(st)
	if len(b.table) != 2 {
		t.Fatalf("restored %d frames into a 2-frame buffer", len(b.table))
	}
	b.Access(7) // the two newest (7, 8) must have been kept
	b.Access(8)
	if b.Misses() != 0 {
		t.Errorf("newest frames must survive a truncating restore; misses=%d", b.Misses())
	}
}

func TestBufferScanPattern(t *testing.T) {
	// Sequential scan over more pages than frames: every access misses.
	b := NewBufferManagerPolicy(8192, 1024, LRU) // 8 frames
	for round := 0; round < 3; round++ {
		for i := 0; i < 16; i++ {
			b.Access(PageID(i))
		}
	}
	if b.Hits() != 0 {
		t.Errorf("LRU must thrash on a sequential over-capacity scan; hits=%d", b.Hits())
	}
}
