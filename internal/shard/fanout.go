package shard

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"spatialjoin/internal/resilience"
	"spatialjoin/internal/resilience/fault"
)

// fanOut is the scatter-gather loop of Join and Query. It runs
// unit(ctx, k) for k = 0..n-1, each on its own goroutine and at most
// GOMAXPROCS at a time, and returns only after every unit has stopped.
// Unit k writes its outcome into slot k of the caller's slice, which the
// caller merges in order once fanOut returns: no lock, no sort.
//
// Each unit is a recovery boundary (a panic becomes its error) and
// passes the fault site first. The first error cancels every unit still
// running or waiting for a slot and is returned. With failed non-nil
// (WithPartialResults), a unit's error goes to failed(k, err) instead
// and the others run on, unless it is a cancellation or deadline
// expiry: a partial answer is for broken tiles, not for impatient
// clients. A caller's context that ends during the fan-out fails it as a
// whole, even when every unit skipped its work.
func fanOut(ctx context.Context, n int, site string, failed func(k int, err error), unit func(ctx context.Context, k int) error) error {
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		once     sync.Once // records the first error
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	for k := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			err := func() (err error) {
				defer resilience.RecoverTo(&err, site)
				if err := fault.Check(site); err != nil {
					return err
				}
				return unit(ctx, k)
			}()
			switch {
			case err == nil:
			case failed != nil && parent.Err() == nil &&
				!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
				failed(k, err)
			default:
				// Cancelled before this unit gives up its slot, so a unit
				// waiting for the slot sees the cancellation and skips.
				once.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}()
	}
	wg.Wait()

	if firstErr == nil {
		firstErr = parent.Err()
	}
	return firstErr
}
