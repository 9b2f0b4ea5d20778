package storage

// A Session is the per-query page-access context that makes one opened
// tree serve many concurrent queries. The paper's buffer accounting is
// inherently stateful — every Access mutates the replacement structures —
// so a shared BufferManager supports exactly one query at a time. A
// Session privatizes that state: it snapshots the buffer contents at
// creation and runs its own replacement simulation (same frame count,
// same policy) with its own hit/miss counters, leaving the shared buffer
// untouched.
//
// Consequences, both deliberate:
//
//   - Isolation. N sessions on one buffer never observe each other: each
//     query's Stats are exactly what a sequential query from the same
//     starting buffer state would report, regardless of what runs
//     concurrently.
//   - Determinism. Because sessions never write back, the buffer's
//     snapshot is stable while only sessions are active, so every
//     session created from it starts from the identical state — the
//     serving layer's per-request stats are reproducible.
//
// A Session is itself not safe for concurrent use; create one per query.
type Session struct {
	sim *BufferManager
}

// Session implements Accessor.
var _ Accessor = (*Session)(nil)

// NewSession creates a per-query access context on buf: a private
// replacement simulation seeded from the buffer's current snapshot, with
// counters starting at zero.
//
// Creating sessions concurrently is safe as long as no query is
// concurrently mutating buf in shared mode (sessions themselves never
// mutate it).
func NewSession(buf *BufferManager) *Session {
	sim := newBufferFrames(buf.Frames(), buf.Policy())
	sim.Restore(buf.State())
	return &Session{sim: sim}
}

// Access touches a page in the session's private simulation.
func (s *Session) Access(id PageID) { s.sim.Access(id) }

// Hits returns the session's buffered accesses.
func (s *Session) Hits() int64 { return s.sim.Hits() }

// Misses returns the session's page accesses that went to disk — the
// paper's page-access count, isolated to this query.
func (s *Session) Misses() int64 { return s.sim.Misses() }

// Accesses returns the session's total page touches.
func (s *Session) Accesses() int64 { return s.sim.Accesses() }

// ResetCounters zeroes the session's statistics without dropping its
// simulated buffer contents, so one session can measure several queries
// back to back.
func (s *Session) ResetCounters() { s.sim.ResetCounters() }
