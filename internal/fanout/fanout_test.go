package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Every index is claimed exactly once, whatever the worker count.
func TestDoClaimsEachIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 7, 1000} {
			hits := make([]int32, n)
			var workers atomic.Int32
			Do(n, func(next func() (int, bool)) {
				workers.Add(1)
				for i, ok := next(); ok; i, ok = next() {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Errorf("GOMAXPROCS=%d n=%d: index %d claimed %d times", procs, n, i, h)
				}
			}
			if got, want := int(workers.Load()), min(procs, n); got != want {
				t.Errorf("GOMAXPROCS=%d n=%d: %d workers ran, want %d", procs, n, got, want)
			}
		}
	}
}

// A worker's panic resurfaces on the caller, with its value, only after
// every worker has stopped.
func TestDoReraisesWorkerPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(8)
	var running atomic.Int32
	defer func() {
		if p := recover(); p != "boom at 3" {
			t.Errorf("recovered %v, want the worker's panic value", p)
		}
		if r := running.Load(); r != 0 {
			t.Errorf("%d workers still running when the panic reached the caller", r)
		}
	}()
	Do(100, func(next func() (int, bool)) {
		running.Add(1)
		defer running.Add(-1)
		for i, ok := next(); ok; i, ok = next() {
			if i == 3 {
				panic("boom at 3")
			}
		}
	})
	t.Error("Do returned normally after a worker panicked")
}
