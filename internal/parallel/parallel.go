// Package parallel holds the shared worker-pool primitives behind the
// analytic pipeline: simulate → ground truth → diff → classify all fan
// work out through the helpers here. The design constraint is
// determinism, not raw throughput: every helper collects results in
// input order, so a stage run on one worker and on GOMAXPROCS workers
// returns byte-identical output. Scheduling only decides *when* an
// index is computed, never *where* its result lands.
//
// The convention for worker knobs in this package is: a count >= 1 is
// used as given (1 = serial, in-order execution on the calling
// goroutine), anything else resolves to runtime.GOMAXPROCS(0). Resolve
// is the one place the repository decides how many cores "all cores"
// means, so GOMAXPROCS=1 runs every default-sized pool serially.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a workers knob to an effective worker count: n >= 1 is
// used as given, anything else becomes runtime.GOMAXPROCS(0).
func Resolve(workers int) int {
	if workers >= 1 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on up to workers
// goroutines and blocks until all calls return. workers == 1 (or n <=
// 1) runs serially, in index order, on the calling goroutine — the
// deterministic reference path. Parallel runs hand out contiguous
// index chunks through an atomic cursor, so skewed per-item costs
// (e.g. heavy users in the population simulator) rebalance instead of
// stalling one worker. fn must be safe to call concurrently; writes to
// shared state must be partitioned by i.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Aim for several chunks per worker so stragglers rebalance, while
	// keeping the cursor contention negligible.
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var cursor int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				hi := int(atomic.AddInt64(&cursor, int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// Map computes fn(i) for every i in [0, n) on up to workers goroutines
// and returns the results in index order, regardless of the worker
// count or scheduling. This is the ordered-collection primitive every
// pipeline stage builds on.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}
