package bench

import (
	"sync/atomic"
	"testing"
)

func TestSweepCoversAllPointsInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		const n = 100
		out := sweepMap(Options{Parallel: workers}, n, func(i int) int { return i * i })
		for i := 0; i < n; i++ {
			if out[i] != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, out[i], i*i)
			}
		}
	}
}

func TestSweepRunsEachPointOnce(t *testing.T) {
	var counts [64]atomic.Int32
	sweep(Options{Parallel: 8}, len(counts), func(i int) { counts[i].Add(1) })
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("point %d ran %d times", i, got)
		}
	}
}

func TestSweepZeroAndOnePoints(t *testing.T) {
	ran := 0
	sweep(Options{Parallel: 8}, 0, func(int) { ran++ })
	if ran != 0 {
		t.Fatal("sweep over zero points ran something")
	}
	sweep(Options{Parallel: 8}, 1, func(int) { ran++ })
	if ran != 1 {
		t.Fatalf("sweep over one point ran %d times", ran)
	}
}

func TestSweepPropagatesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: panic in a point was swallowed", workers)
				}
			}()
			sweep(Options{Parallel: workers}, 10, func(i int) {
				if i == 3 {
					panic("boom")
				}
			})
		}()
	}
}

func TestGridRoundTrip(t *testing.T) {
	g := grid{outer: 5, inner: 7}
	if g.size() != 35 {
		t.Fatalf("size = %d", g.size())
	}
	seen := map[[2]int]bool{}
	for i := 0; i < g.size(); i++ {
		o, in := g.split(i)
		if o < 0 || o >= 5 || in < 0 || in >= 7 {
			t.Fatalf("split(%d) = (%d,%d) out of range", i, o, in)
		}
		seen[[2]int{o, in}] = true
	}
	if len(seen) != 35 {
		t.Fatalf("split not a bijection: %d distinct cells", len(seen))
	}
}

// TestRunRecordsWallAndEvents checks the -json bookkeeping satellites:
// Run must stamp wall time and a nonzero simulation event count on
// results that actually simulate.
func TestRunRecordsWallAndEvents(t *testing.T) {
	r := runQuick(t, "fig2")
	if r.wall <= 0 {
		t.Fatalf("Wall = %v, want > 0", r.wall)
	}
	if r.events == 0 {
		t.Fatal("Events = 0 for a simulation-backed experiment")
	}
}
