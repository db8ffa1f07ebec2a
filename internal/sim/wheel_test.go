package sim

import "testing"

// TestEngineScheduleFireAllocFree: once the wheel's arena and the far
// heap have grown, scheduling and firing an event allocates nothing, in
// either tier and across the boundary between them — alone, and beside
// a few hundred pending events on both sides.
func TestEngineScheduleFireAllocFree(t *testing.T) {
	fn := func() {}
	for _, d := range []Time{0, 1, wheelSpan - 1, wheelSpan, 20000} {
		for _, depth := range []int{0, 300} {
			e := NewEngine(1)
			for i := 0; i < depth; i++ {
				e.At(Time(i)*97, fn) // pending events from 0 to ~7 spans
			}
			cycle := func() {
				e.After(d, fn)
				e.Step()
			}
			for i := 0; i < 4096; i++ { // grow the arena and the heap
				cycle()
			}
			if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
				t.Errorf("delay %v, %d pending: schedule/fire allocates %.2f per event", d, depth, allocs)
			}
		}
	}
}

// TestEnginePoolReuse checks that a schedule→fire→schedule chain reuses
// the wheel's arena nodes instead of growing the arena.
func TestEnginePoolReuse(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 100; i++ {
		e.At(Time(i), fn)
	}
	e.Run()
	grown := len(e.near.nodes)
	if grown != 101 { // node 0 stands for none
		t.Fatalf("arena holds %d nodes after 100 events, want 101", grown)
	}
	for i := 0; i < 100; i++ {
		e.After(Time(i+1), fn)
	}
	if got := len(e.near.nodes); got != grown {
		t.Fatalf("arena grew from %d to %d nodes on reuse", grown, got)
	}
	if e.near.idle != 0 {
		t.Fatalf("idle list still starts at node %d after reuse, want empty", e.near.idle)
	}
	e.Run()
}

// TestFreeListSteadyStateNoAlloc: once warmed, the schedule→fire cycle
// must not allocate.
func TestFreeListSteadyStateNoAlloc(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ { // warm the arena
		e.After(1, fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, fn)
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule/fire allocates %.1f objects per op", allocs)
	}
}

// TestWheelDropsFiredClosures: a burst four spans long fills both tiers;
// once it drains, no arena node and no slot of the far heap's backing
// array still references a fired callback, so nothing it captured is
// kept alive for the rest of the run.
func TestWheelDropsFiredClosures(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	for i := 0; i < 4*wheelSpan; i++ {
		buf := make([]byte, 64) // captured: pinned while a node holds fn
		e.At(Time(i), func() { fired += len(buf) / 64 })
	}
	if len(e.far) == 0 || e.near.n == 0 {
		t.Fatalf("burst left %d near and %d far events, want both tiers used", e.near.n, len(e.far))
	}
	e.Run()
	if fired != 4*wheelSpan {
		t.Fatalf("fired %d of %d", fired, 4*wheelSpan)
	}
	for i, nd := range e.near.nodes {
		if nd.fn != nil {
			t.Fatalf("arena node %d of %d still holds a fired callback", i, len(e.near.nodes))
		}
	}
	for i, ev := range e.far[:cap(e.far)] {
		if ev.fn != nil {
			t.Fatalf("far heap slot %d still holds a fired callback", i)
		}
	}
}
