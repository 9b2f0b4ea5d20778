package storage

import "testing"

// TestBufferAllocationGuards is the allocation-regression guard of the
// buffer simulation. A miss on a full buffer reuses the node it evicts,
// so it allocates nothing; a session's set-up allocates a constant
// number of objects whatever the frame count: its simulator, one frame
// table, one snapshot slice and one slice of frame nodes.
func TestBufferAllocationGuards(t *testing.T) {
	for _, policy := range []Policy{LRU, Clock} {
		b := newBufferFrames(8, policy)
		next := PageID(0)
		for ; next < 64; next++ {
			b.Access(next) // fill, then evict: the spare exists
		}
		allocs := testing.AllocsPerRun(1000, func() {
			b.Access(next)
			next++
		})
		t.Logf("%v: a miss on a full buffer allocates %.0f objects", policy, allocs)
		if allocs != 0 {
			t.Errorf("%v: a miss on a full buffer allocates %.1f objects, want 0", policy, allocs)
		}
	}

	const sessionBudget = 8
	for _, frames := range []int{8, 32, 256} {
		store := newBufferFrames(frames, LRU)
		for id := range PageID(frames) {
			store.Access(id)
		}
		allocs := testing.AllocsPerRun(100, func() { NewSession(store) })
		t.Logf("NewSession at %d frames allocates %.0f objects", frames, allocs)
		if allocs > sessionBudget {
			t.Errorf("NewSession at %d frames allocates %.0f objects, want <= %d", frames, allocs, sessionBudget)
		}
	}
}
