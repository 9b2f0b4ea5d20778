package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecoverToCapturesPanic(t *testing.T) {
	err := func() (err error) {
		defer RecoverTo(&err, "tile-query")
		panic("boom")
	}()
	pe, ok := AsPanic(err)
	if !ok {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Site != "tile-query" || pe.Value != "boom" || pe.Incident == "" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v", pe)
	}
	if !strings.Contains(pe.Error(), pe.Incident) {
		t.Fatalf("Error() %q does not carry the incident ID", pe.Error())
	}
}

func TestRecoverToNoPanicLeavesError(t *testing.T) {
	base := errors.New("original")
	err := func() (err error) {
		defer RecoverTo(&err, "s")
		return base
	}()
	if err != base {
		t.Fatalf("err = %v, want the original", err)
	}
}

func TestAsPanicUnwraps(t *testing.T) {
	pe := Recovered("s", 42)
	wrapped := fmt.Errorf("tile 3: %w", pe)
	got, ok := AsPanic(wrapped)
	if !ok || got != pe {
		t.Fatalf("AsPanic(wrapped) = %v, %t", got, ok)
	}
	if _, ok := AsPanic(errors.New("plain")); ok {
		t.Fatal("AsPanic matched a plain error")
	}
}

func TestIncidentIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := newIncidentID()
		if seen[id] {
			t.Fatalf("duplicate incident ID %s", id)
		}
		seen[id] = true
	}
}

func TestNilLimiterAdmitsEverything(t *testing.T) {
	var l *Limiter
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("nil Acquire: %v", err)
	}
	release()
	if st := l.Stats(); st != (LimiterStats{}) {
		t.Fatalf("nil Stats() = %+v", st)
	}
}

func TestLimiterShedsBeyondQueue(t *testing.T) {
	l := NewLimiter(1, 0, 0)
	rel1, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	if _, err := l.Acquire(context.Background()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("second Acquire err = %v, want ErrSaturated", err)
	}
	rel1()
	rel2, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire after release: %v", err)
	}
	rel2()
	st := l.Stats()
	if st.Admitted != 2 || st.Shed != 1 || st.InFlight != 0 {
		t.Fatalf("Stats() = %+v", st)
	}
}

func TestLimiterQueueWaitTimesOut(t *testing.T) {
	l := NewLimiter(1, 1, 20*time.Millisecond)
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	t0 := time.Now()
	if _, err := l.Acquire(context.Background()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("queued Acquire err = %v, want ErrSaturated", err)
	}
	if d := time.Since(t0); d < 15*time.Millisecond {
		t.Fatalf("shed after %v, want to wait ~20ms first", d)
	}
	if st := l.Stats(); st.Queued != 0 {
		t.Fatalf("Queued = %d after timed-out wait, want 0", st.Queued)
	}
}

func TestLimiterQueueHandoff(t *testing.T) {
	l := NewLimiter(1, 1, time.Second)
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		r2, err := l.Acquire(context.Background())
		if err == nil {
			r2()
		}
		got <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the second request queue
	release()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("queued Acquire: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("queued request never admitted")
	}
}

func TestLimiterClientCancelWhileQueued(t *testing.T) {
	l := NewLimiter(1, 1, time.Minute)
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := l.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire err = %v, want context.Canceled", err)
	}
	// A client abandoning the queue is not a shed.
	if st := l.Stats(); st.Shed != 0 {
		t.Fatalf("Shed = %d, want 0", st.Shed)
	}
}

func TestLimiterReleaseIdempotent(t *testing.T) {
	l := NewLimiter(2, 0, 0)
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release()
	release()
	if st := l.Stats(); st.InFlight != 0 {
		t.Fatalf("InFlight = %d after double release, want 0", st.InFlight)
	}
}

func TestLimiterConcurrentBound(t *testing.T) {
	const maxIn = 4
	l := NewLimiter(maxIn, 64, time.Second)
	var wg sync.WaitGroup
	var over sync.Mutex
	var inflight, maxSeen int
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := l.Acquire(context.Background())
			if err != nil {
				return
			}
			over.Lock()
			inflight++
			if inflight > maxSeen {
				maxSeen = inflight
			}
			over.Unlock()
			time.Sleep(time.Millisecond)
			over.Lock()
			inflight--
			over.Unlock()
			release()
		}()
	}
	wg.Wait()
	if maxSeen > maxIn {
		t.Fatalf("observed %d concurrent holders, limit %d", maxSeen, maxIn)
	}
}
