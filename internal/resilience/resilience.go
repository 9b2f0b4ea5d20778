// Package resilience is the serving stack's failure-containment
// toolkit (DESIGN.md §14): panic capture with incident IDs at request
// and sub-task boundaries, and a concurrency limiter with a bounded
// wait queue for admission control. The companion package
// resilience/fault injects the failures these primitives must contain.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// PanicError is a recovered panic promoted to an error: the request
// that hit it fails with an incident ID while the process keeps
// serving. The stack is captured at recovery time, so the incident log
// points at the faulty traversal, not at the HTTP handler.
type PanicError struct {
	// Incident is the ID logged with the stack and echoed to the
	// client, correlating a 500 response with the server-side log line.
	Incident string
	// Site names the recovery boundary ("tile-query", "join", …).
	Site string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic at %s (incident %s): %v", e.Site, e.Incident, e.Value)
}

// incidentSeq numbers incidents within this process; the boot stamp
// makes IDs unique across restarts.
var (
	incidentSeq  atomic.Int64
	incidentBoot = time.Now().UnixNano() & 0xffffffff
)

// newIncidentID returns a fresh process-unique incident ID.
func newIncidentID() string {
	return fmt.Sprintf("%08x-%06d", incidentBoot, incidentSeq.Add(1))
}

// Recovered wraps a recovered panic value as a PanicError with a fresh
// incident ID and the current stack.
func Recovered(site string, v any) *PanicError {
	return &PanicError{Incident: newIncidentID(), Site: site, Value: v, Stack: debug.Stack()}
}

// RecoverTo is the sub-task recovery boundary, used as
//
//	defer resilience.RecoverTo(&err, "tile-query")
//
// A panic below the deferring function becomes a *PanicError in *errp
// (existing errors are not overwritten — the panic is the root cause,
// so it wins) and the goroutine survives.
func RecoverTo(errp *error, site string) {
	if r := recover(); r != nil {
		*errp = Recovered(site, r)
	}
}

// AsPanic unwraps err to its PanicError, if it is one.
func AsPanic(err error) (*PanicError, bool) {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// ErrSaturated reports a request shed by admission control: every
// execution slot is busy and the wait queue is full (or the queue wait
// timed out). The HTTP layer maps it to 429 with Retry-After.
var ErrSaturated = errors.New("resilience: server saturated, request shed")

// Limiter is the admission controller: at most MaxInFlight requests
// execute at once, at most MaxQueue more wait up to QueueWait for a
// slot, and everything beyond is shed immediately. A nil *Limiter
// admits everything (no admission control configured).
type Limiter struct {
	maxQueue  int
	queueWait time.Duration
	slots     chan struct{}

	inflight atomic.Int64
	queued   atomic.Int64
	admitted atomic.Int64
	shed     atomic.Int64
}

// NewLimiter builds an admission controller. maxInFlight must be
// positive; maxQueue ≤ 0 means no waiting (immediate shed when all
// slots are busy); queueWait ≤ 0 with a positive maxQueue waits only
// for the request's own context.
func NewLimiter(maxInFlight, maxQueue int, queueWait time.Duration) *Limiter {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Limiter{
		maxQueue:  maxQueue,
		queueWait: queueWait,
		slots:     make(chan struct{}, maxInFlight),
	}
}

// Acquire admits the request or sheds it. On admission it returns a
// release function the caller must invoke when the request finishes.
// It returns ErrSaturated when the request is shed, or ctx.Err() when
// the client gave up while queued. On a nil limiter it admits
// unconditionally.
func (l *Limiter) Acquire(ctx context.Context) (release func(), err error) {
	if l == nil {
		return func() {}, nil
	}
	select {
	case l.slots <- struct{}{}:
		return l.admit(), nil
	default:
	}
	// All slots busy: queue if there is room, else shed now.
	if l.queued.Add(1) > int64(l.maxQueue) {
		l.queued.Add(-1)
		l.shed.Add(1)
		return nil, ErrSaturated
	}
	defer l.queued.Add(-1)
	var timeout <-chan time.Time
	if l.queueWait > 0 {
		t := time.NewTimer(l.queueWait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case l.slots <- struct{}{}:
		return l.admit(), nil
	case <-timeout:
		l.shed.Add(1)
		return nil, ErrSaturated
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (l *Limiter) admit() func() {
	l.admitted.Add(1)
	l.inflight.Add(1)
	var released atomic.Bool
	return func() {
		if released.CompareAndSwap(false, true) {
			l.inflight.Add(-1)
			<-l.slots
		}
	}
}

// LimiterStats is the admission controller's /stats row.
type LimiterStats struct {
	// MaxInFlight and MaxQueue echo the configured bounds.
	MaxInFlight int `json:"max_in_flight"`
	MaxQueue    int `json:"max_queue"`
	// InFlight and Queued are instantaneous gauges; Admitted and Shed
	// are lifetime counters.
	InFlight int64 `json:"in_flight"`
	Queued   int64 `json:"queued"`
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
}

// Stats snapshots the limiter's counters; the zero value on nil.
func (l *Limiter) Stats() LimiterStats {
	if l == nil {
		return LimiterStats{}
	}
	return LimiterStats{
		MaxInFlight: cap(l.slots),
		MaxQueue:    l.maxQueue,
		InFlight:    l.inflight.Load(),
		Queued:      l.queued.Load(),
		Admitted:    l.admitted.Load(),
		Shed:        l.shed.Load(),
	}
}
