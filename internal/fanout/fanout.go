// Package fanout spreads independent, index-addressed work over the cores:
// the one worker pool behind the scenario seed batch and the checker's
// campaigns.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do runs worker on min(GOMAXPROCS, n) goroutines and returns once all of
// them have. A worker sets up whatever scratch it needs, then loops on next,
// which hands every index in [0, n) to exactly one worker. A worker that
// writes only the result slots of the indices it claimed makes the outcome
// independent of the worker count, which is what the callers' determinism
// tests compare at GOMAXPROCS 1 and 8.
//
// If a worker panics, no further index is handed out, and Do re-panics with
// the first recovered value on the caller's goroutine after every worker
// has stopped.
func Do(n int, worker func(next func() (i int, ok bool))) {
	var (
		claimed  atomic.Int64
		panicked atomic.Pointer[any] // the first worker panic, nil while none
		wg       sync.WaitGroup
	)
	next := func() (int, bool) {
		i := int(claimed.Add(1)) - 1
		return i, i < n && panicked.Load() == nil
	}
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicked.CompareAndSwap(nil, &p)
				}
			}()
			worker(next)
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
}
