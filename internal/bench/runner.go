// Parallel sweep execution for the experiment harness.
//
// Every experiment is a sweep of independent simulation points — sizes ×
// cores × loads × disciplines — and every point builds its own seeded
// sim.Engine, so points share no mutable state and can run on different
// OS threads. The helpers here fan points out across a bounded worker
// pool and collect results in deterministic sweep order: a parallel run
// produces byte-identical Result tables to a serial one (enforced by
// TestParallelParity), because parallelism only reorders wall-clock
// execution, never the per-point virtual-time simulation or the order
// results are assembled in.
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// workers resolves the sweep worker count for this run.
func (o Options) workers() int {
	if o.Parallel > 1 {
		return o.Parallel
	}
	return 1
}

// sweep executes point(i) for every i in [0, n) using the run's worker
// pool. point must confine its writes to per-i state (slot i of a result
// slice); it must not touch shared mutable state. With Parallel ≤ 1 the
// points run inline, in order, on the calling goroutine — the serial
// reference path. A panic in any point is re-raised on the caller after
// all workers drain, mirroring serial behaviour.
func sweep(o Options, n int, point func(i int)) {
	w := o.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			point(i)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicV == nil {
								panicV = r
							}
							panicMu.Unlock()
						}
					}()
					point(i)
				}()
				panicMu.Lock()
				stop := panicV != nil
				panicMu.Unlock()
				if stop {
					return
				}
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(fmt.Sprintf("bench: sweep point panicked: %v", panicV))
	}
}

// sweepMap fans f over [0, n) and returns the results indexed by point —
// the workhorse the runners use: compute every point concurrently, then
// assemble rows serially in sweep order.
func sweepMap[T any](o Options, n int, f func(i int) T) []T {
	out := make([]T, n)
	sweep(o, n, func(i int) { out[i] = f(i) })
	return out
}

// grid flattens a 2-D sweep (outer × inner) into point indices for
// sweepMap and back. Row-major: index = oi*inner + ii.
type grid struct{ outer, inner int }

func (g grid) size() int              { return g.outer * g.inner }
func (g grid) split(i int) (int, int) { return i / g.inner, i % g.inner }
