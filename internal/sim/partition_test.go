package sim

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// pingRecord is one delivered cross-partition message, as observed by
// the destination partition.
type pingRecord struct {
	at   Time
	src  int
	dst  int
	tick uint64
	draw uint64
}

// buildPingMesh builds a Group of parts partitions, each running a
// self-ticking process that does local PRNG work and fires
// cross-partition messages until deadline, and returns it with every
// partition's (still empty) delivery log. The workload exercises
// simultaneous events (many ticks share an instant), fan-in (all
// partitions target partition 0 more often), and chained injects
// (deliveries schedule follow-up local work).
func buildPingMesh(seed uint64, parts int, deadline Time) (*Group, [][]pingRecord) {
	const lookahead = 900 * Nanosecond
	g := NewGroup(seed, parts)
	g.TightenLookahead(lookahead)
	logs := make([][]pingRecord, parts)
	for i := 0; i < parts; i++ {
		i := i
		e := g.Engine(i)
		var tick func(n uint64)
		tick = func(n uint64) {
			draw := e.Rand().Uint64()
			// Fan out: every third tick pings another partition, biased
			// toward partition 0 to create a hot destination.
			if n%3 == 0 {
				dst := 0
				if draw%2 == 0 {
					dst = int(draw/2) % parts
				}
				if dst != i {
					at := e.Now() + lookahead + Time(draw%500)
					n, d := n, draw
					g.Inject(i, dst, at, func() {
						rec := pingRecord{at: g.Engine(dst).Now(), src: i, dst: dst, tick: n, draw: d}
						logs[dst] = append(logs[dst], rec)
						// Chained local work on the destination.
						g.Engine(dst).After(Time(d%97), func() {
							g.Engine(dst).Rand().Uint64()
						})
					})
				}
			}
			if next := e.Now() + Time(100+draw%300); next <= deadline {
				e.At(next, func() { tick(n + 1) })
			}
		}
		e.Defer(func() { tick(0) })
	}
	return g, logs
}

// runPingMesh runs a fresh ping mesh to deadline on workers workers.
func runPingMesh(seed uint64, parts, workers int, deadline Time) ([][]pingRecord, *Group) {
	g, logs := buildPingMesh(seed, parts, deadline)
	g.RunUntil(deadline, workers)
	return logs, g
}

// atProcs runs fn with GOMAXPROCS pinned to n (left alone when n is 0).
func atProcs(n int, fn func()) {
	if n > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	}
	fn()
}

// TestGroupParallelMatchesSerial is the core determinism property: the
// same partitioned simulation run with 1 worker and with W workers must
// produce byte-identical per-partition event histories — with a worker
// per partition, with uneven stripes, with more workers than the box has
// Ps, and with every worker sharing one P (procs > 0 pins GOMAXPROCS),
// where the helpers only run when the coordinator yields to them.
func TestGroupParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ parts, workers, procs int }{
		{parts: 2, workers: 2},
		{parts: 4, workers: 4},
		{parts: 7, workers: 7},
		{parts: 7, workers: 3},
		{parts: 8, workers: 8},
		{parts: 8, workers: 4, procs: 1},
	} {
		for _, seed := range []uint64{1, 42} {
			deadline := 200 * Microsecond
			serial, gs := runPingMesh(seed, tc.parts, 1, deadline)
			var parallel [][]pingRecord
			var gp *Group
			atProcs(tc.procs, func() { parallel, gp = runPingMesh(seed, tc.parts, tc.workers, deadline) })
			for i := range serial {
				if len(serial[i]) != len(parallel[i]) {
					t.Fatalf("%+v seed=%d partition %d: %d records serial vs %d parallel",
						tc, seed, i, len(serial[i]), len(parallel[i]))
				}
				for k := range serial[i] {
					if serial[i][k] != parallel[i][k] {
						t.Fatalf("%+v seed=%d partition %d record %d: %+v vs %+v",
							tc, seed, i, k, serial[i][k], parallel[i][k])
					}
				}
			}
			if gs.ExecutedEvents() != gp.ExecutedEvents() {
				t.Fatalf("executed: %d serial vs %d parallel", gs.ExecutedEvents(), gp.ExecutedEvents())
			}
			if gs.Crossed() == 0 {
				t.Fatalf("workload degenerate: no cross-partition traffic")
			}
			if gs.Rounds() == 0 || gs.Rounds() != gp.Rounds() {
				t.Fatalf("rounds: %d serial vs %d parallel", gs.Rounds(), gp.Rounds())
			}
		}
	}
}

// TestGroupClockNormalization: after RunUntil every partition sits at
// the deadline and post-deadline events stay pending.
func TestGroupClockNormalization(t *testing.T) {
	g := NewGroup(7, 3)
	g.TightenLookahead(Microsecond)
	fired := false
	g.Engine(1).At(5*Microsecond, func() {})
	g.Engine(2).At(20*Microsecond, func() { fired = true })
	g.RunUntil(10*Microsecond, 3)
	for i := 0; i < 3; i++ {
		if now := g.Engine(i).Now(); now != 10*Microsecond {
			t.Fatalf("partition %d clock %v, want 10µs", i, now)
		}
	}
	if fired {
		t.Fatalf("event past the deadline fired")
	}
	if g.Engine(2).Pending() != 1 {
		t.Fatalf("pending = %d, want the post-deadline event", g.Engine(2).Pending())
	}
}

// TestGroupSinglePartitionDelegates: a 1-partition group behaves
// exactly like a bare engine with the same seed.
func TestGroupSinglePartitionDelegates(t *testing.T) {
	run := func(e *Engine) (uint64, Time) {
		var sum uint64
		for i := 0; i < 50; i++ {
			e.At(Time(i*10), func() { sum += e.Rand().Uint64() })
		}
		e.RunUntil(Microsecond)
		return sum, e.Now()
	}
	g := NewGroup(99, 1)
	gotSum, gotNow := run(g.Engine(0))
	wantSum, wantNow := run(NewEngine(99))
	if gotSum != wantSum || gotNow != wantNow {
		t.Fatalf("1-partition group diverged from bare engine: (%d,%v) vs (%d,%v)",
			gotSum, gotNow, wantSum, wantNow)
	}
}

// TestInjectLookaheadViolationPanics: scheduling a cross-partition
// event inside the lookahead horizon is a model bug and must not be
// silently reordered.
func TestInjectLookaheadViolationPanics(t *testing.T) {
	g := NewGroup(1, 2)
	g.TightenLookahead(Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatalf("lookahead violation did not panic")
		}
	}()
	g.Inject(0, 1, 500*Nanosecond, func() {})
}

// TestGroupRequiresLookahead: a multi-partition run without an
// established latency floor cannot be conservative.
func TestGroupRequiresLookahead(t *testing.T) {
	g := NewGroup(1, 2)
	g.Engine(0).At(1, func() {})
	defer func() {
		if recover() == nil {
			t.Fatalf("run without lookahead did not panic")
		}
	}()
	g.RunUntil(Microsecond, 2)
}

// TestGroupPanicPropagates: a panic inside a partition's event surfaces
// on the coordinating goroutine, like in a serial run — whether the
// window ran in the coordinator's own stripe (partition 0) or in a
// helper's (partition 1) — and, with helpers, only after the round's
// other windows have finished. When several partitions panic in one
// round the lowest-numbered one is reported, as a serial run would.
func TestGroupPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, tc := range []struct {
			name   string
			panics []int
			want   string
		}{
			{"coordinator's stripe", []int{0}, "boom 0"},
			{"helper's stripe", []int{1}, "boom 1"},
			{"both", []int{1, 0}, "boom 0"},
		} {
			g := NewGroup(1, 2)
			g.TightenLookahead(Microsecond)
			ran := [2]bool{}
			for i := 0; i < 2; i++ {
				g.Engine(i).At(10, func() { ran[i] = true })
			}
			for _, i := range tc.panics {
				g.Engine(i).At(10, func() { panic(fmt.Sprint("boom ", i)) })
			}
			func() {
				defer func() {
					if r := recover(); r == nil {
						t.Fatalf("workers=%d %s: partition panic lost", workers, tc.name)
					} else if fmt.Sprint(r) != tc.want {
						t.Fatalf("workers=%d %s: panic value %v, want %v", workers, tc.name, r, tc.want)
					}
				}()
				g.RunUntil(Microsecond, workers)
			}()
			if workers > 1 && ran != [2]bool{true, true} {
				t.Fatalf("workers=%d %s: panic re-raised before the round's other windows finished (ran %v)",
					workers, tc.name, ran)
			}
		}
	}
}

// TestTotalExecutedFlushesAtWindows is the progress-meter fix: an event
// in a late window must observe the executed counts of earlier windows
// in TotalExecuted, not just at the end of the run.
func TestTotalExecutedFlushesAtWindows(t *testing.T) {
	g := NewGroup(3, 2)
	g.TightenLookahead(Microsecond)
	base := TotalExecuted()
	e0 := g.Engine(0)
	// First window: a burst of 200 events inside one lookahead span.
	for i := 0; i < 200; i++ {
		e0.At(Time(i), func() {})
	}
	// A much later window observes the meter.
	var seen uint64
	g.Engine(1).At(Millisecond, func() { seen = TotalExecuted() - base })
	g.RunUntil(2*Millisecond, 1)
	if seen < 200 {
		t.Fatalf("mid-run TotalExecuted advance = %d, want ≥ 200 (per-window flush missing)", seen)
	}
}

// TestAtBarrierOrderingContract pins the barrier ordering rules on a
// multi-partition group: an action at time B runs after every event
// strictly before B on every partition, before any event at B, with all
// clocks normalized to B-1, and may schedule follow-on events at ≥ B.
func TestAtBarrierOrderingContract(t *testing.T) {
	g := NewGroup(1, 2)
	g.TightenLookahead(Microsecond)
	const B = 10 * Microsecond
	var trace []string
	g.Engine(0).At(B-1, func() { trace = append(trace, "p0@B-1") })
	g.Engine(1).At(B-1, func() { trace = append(trace, "p1@B-1") })
	g.Engine(0).At(B, func() { trace = append(trace, "p0@B") })
	g.Engine(1).At(B+1, func() { trace = append(trace, "p1@B+1") })
	g.AtBarrier(B, func() {
		trace = append(trace, "barrier")
		if n0, n1 := g.Engine(0).Now(), g.Engine(1).Now(); n0 != B-1 || n1 != B-1 {
			t.Errorf("barrier action saw clocks %v/%v, want both normalized to %v", n0, n1, B-1)
		}
		// Follow-on work at the barrier time itself is legal.
		g.Engine(1).At(B, func() { trace = append(trace, "p1@B-followon") })
	})
	// workers=1: the shared trace is appended from window events on both
	// partitions, which would race under a pool; the ordering contract is
	// identical at any worker count (see the determinism test).
	g.RunUntil(20*Microsecond, 1)
	want := []string{"p0@B-1", "p1@B-1", "barrier", "p0@B", "p1@B-followon", "p1@B+1"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("barrier ordering:\n got %v\nwant %v", trace, want)
	}
}

// TestAtBarrierSameTimeAndChaining: same-time actions run in
// registration order; an action chaining another at the same instant is
// picked up in the same pass, and a later chain runs at its own time.
func TestAtBarrierSameTimeAndChaining(t *testing.T) {
	for _, parts := range []int{1, 3} {
		g := NewGroup(2, parts)
		g.TightenLookahead(Microsecond)
		var order []string
		g.AtBarrier(5*Microsecond, func() {
			order = append(order, "a")
			g.AtBarrier(5*Microsecond, func() { order = append(order, "a-chain") })
			g.AtBarrier(8*Microsecond, func() { order = append(order, "late-chain") })
		})
		g.AtBarrier(5*Microsecond, func() { order = append(order, "b") })
		// Keep the mesh busy so windows actually advance.
		for i := 0; i < parts; i++ {
			e := g.Engine(i)
			e.At(0, func() {})
			e.At(9*Microsecond, func() {})
		}
		g.RunUntil(10*Microsecond, parts)
		want := []string{"a", "b", "a-chain", "late-chain"}
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("parts=%d: action order %v, want %v", parts, order, want)
		}
	}
}

// TestAtBarrierSinglePartitionIsEngineEvent: on a one-partition group a
// barrier action is an ordinary event on the one engine, so it fires
// under a plain Engine.Run() — the way classic clusters are driven —
// at its own timestamp, and leaves nothing on the group's queue.
func TestAtBarrierSinglePartitionIsEngineEvent(t *testing.T) {
	g := NewGroup(7, 1)
	e := g.Engine(0)
	var trace []string
	e.At(4*Microsecond, func() { trace = append(trace, "before") })
	g.AtBarrier(5*Microsecond, func() {
		trace = append(trace, "barrier")
		if now := e.Now(); now != 5*Microsecond {
			t.Errorf("action saw Now() = %v, want its own time %v", now, 5*Microsecond)
		}
		g.AtBarrier(7*Microsecond, func() { trace = append(trace, "chained") })
	})
	e.At(6*Microsecond, func() { trace = append(trace, "after") })
	e.Run()
	want := []string{"before", "barrier", "after", "chained"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("single-partition barrier under Engine.Run:\n got %v\nwant %v", trace, want)
	}
	if g.Rounds() != 0 {
		t.Fatalf("single-partition group counted %d rounds, want 0", g.Rounds())
	}
}

// TestAtBarrierPastFloorPanics: scheduling an action behind the commit
// floor is a model bug and panics, like Engine.At on a past time.
func TestAtBarrierPastFloorPanics(t *testing.T) {
	g := NewGroup(3, 2)
	g.TightenLookahead(Microsecond)
	g.Engine(0).At(Microsecond, func() {})
	g.RunUntil(5*Microsecond, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("AtBarrier before the commit floor did not panic")
		}
	}()
	g.AtBarrier(2*Microsecond, func() {})
}

// TestAtBarrierPastDeadlineStaysQueued: an action beyond the RunUntil
// deadline does not run in that call, and fires on a later RunUntil that
// covers it — on both the single-engine and windowed paths.
func TestAtBarrierPastDeadlineStaysQueued(t *testing.T) {
	for _, parts := range []int{1, 2} {
		g := NewGroup(4, parts)
		g.TightenLookahead(Microsecond)
		ran := 0
		g.AtBarrier(8*Microsecond, func() { ran++ })
		g.Engine(0).At(Microsecond, func() {})
		g.RunUntil(5*Microsecond, parts)
		if ran != 0 {
			t.Fatalf("parts=%d: action past the deadline ran early", parts)
		}
		g.RunUntil(10*Microsecond, parts)
		if ran != 1 {
			t.Fatalf("parts=%d: queued action ran %d times after covering RunUntil, want 1", parts, ran)
		}
	}
}

// TestAtBarrierDeterminismAcrossWorkers runs the ping mesh with barrier
// actions mutating shared state mid-run and compares full delivery logs
// plus barrier observations across 1, 2, and 4 workers.
func TestAtBarrierDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		const parts, deadline = 4, 200 * Microsecond
		const lookahead = 900 * Nanosecond
		g := NewGroup(7, parts)
		g.TightenLookahead(lookahead)
		shared := 0 // cluster-wide state only barrier actions touch
		var out []string
		logs := make([][]pingRecord, parts)
		for i := 0; i < parts; i++ {
			i := i
			e := g.Engine(i)
			var tick func(n uint64)
			tick = func(n uint64) {
				draw := e.Rand().Uint64()
				if n%3 == 0 {
					dst := int(draw % uint64(parts))
					if dst != i {
						at := e.Now() + lookahead + Time(draw%500)
						n, d := n, draw
						g.Inject(i, dst, at, func() {
							logs[dst] = append(logs[dst], pingRecord{
								at: g.Engine(dst).Now(), src: i, dst: dst, tick: n, draw: d})
						})
					}
				}
				if next := e.Now() + Time(100+draw%300); next <= deadline {
					e.At(next, func() { tick(n + 1) })
				}
			}
			e.Defer(func() { tick(0) })
		}
		for _, at := range []Time{30 * Microsecond, 100 * Microsecond, 100 * Microsecond} {
			at := at
			g.AtBarrier(at, func() {
				shared++
				total := uint64(0)
				for i := 0; i < parts; i++ {
					total += g.Engine(i).Executed()
				}
				out = append(out, fmt.Sprintf("t=%d shared=%d executed=%d", int64(at), shared, total))
			})
		}
		g.RunUntil(deadline, workers)
		for p := range logs {
			for _, r := range logs[p] {
				out = append(out, fmt.Sprintf("p%d %v %d->%d tick=%d draw=%d", p, r.at, r.src, r.dst, r.tick, r.draw))
			}
		}
		return fmt.Sprint(out)
	}
	base := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); got != base {
			t.Fatalf("barrier-action run diverged at %d workers", w)
		}
	}
}

// TestAtBarrierUnderUnboundedRun: RunUntil(MaxTime) must
// terminate once the group drains — the empty action queue's MaxTime
// sentinel is "no barrier pending", not a barrier at MaxTime — and
// still run actions scheduled past the last event first.
func TestAtBarrierUnderUnboundedRun(t *testing.T) {
	for _, parts := range []int{1, 2} {
		g := NewGroup(4, parts)
		g.TightenLookahead(Microsecond)
		ran := 0
		g.AtBarrier(8*Microsecond, func() { ran++ })
		g.Engine(0).At(Microsecond, func() {})
		g.Engine(parts-1).At(2*Microsecond, func() {})
		g.RunUntil(MaxTime, parts) // regression: looped forever on the drained group
		if ran != 1 {
			t.Fatalf("parts=%d: action past the last event ran %d times under RunUntil(MaxTime), want 1", parts, ran)
		}
	}
}

// TestDeferBarrierCommitsAtWindowBoundary: a mutation registered from
// inside window execution runs at the window's limit — after every
// event strictly before it, before every event at or past it — with
// partition clocks normalized to limit-1, exactly like an AtBarrier
// action registered up front.
func TestDeferBarrierCommitsAtWindowBoundary(t *testing.T) {
	g := NewGroup(1, 2)
	g.TightenLookahead(Microsecond)
	var trace []string
	g.Engine(0).At(5*Microsecond, func() {
		trace = append(trace, "p0@5")
		g.DeferBarrier(0, func() {
			trace = append(trace, "commit")
			if n0, n1 := g.Engine(0).Now(), g.Engine(1).Now(); n0 != n1 {
				t.Errorf("commit saw unnormalized clocks %v/%v", n0, n1)
			}
			// Follow-on engine work from a commit is legal.
			g.Engine(1).At(g.Engine(1).Now()+Microsecond, func() { trace = append(trace, "followon") })
		})
	})
	g.Engine(1).At(5*Microsecond, func() { trace = append(trace, "p1@5") })
	g.Engine(1).At(8*Microsecond, func() { trace = append(trace, "p1@8") })
	g.RunUntil(20*Microsecond, 1)
	want := []string{"p0@5", "p1@5", "commit", "followon", "p1@8"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("deferred commit ordering:\n got %v\nwant %v", trace, want)
	}
}

// TestDeferBarrierSinglePartition: with one partition there are no
// concurrent readers to defer around; the mutation runs inline, like on
// a classic engine.
func TestDeferBarrierSinglePartition(t *testing.T) {
	g := NewGroup(2, 1)
	var trace []string
	g.Engine(0).At(Microsecond, func() {
		trace = append(trace, "event")
		g.DeferBarrier(0, func() { trace = append(trace, "inline") })
		trace = append(trace, "after")
	})
	g.RunUntil(2*Microsecond, 1)
	want := []string{"event", "inline", "after"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("single-partition defer:\n got %v\nwant %v", trace, want)
	}
}

// TestDeferBarrierPartitionOrder: deferrals from different partitions
// in the same round run in partition order, not in whatever order the
// window goroutines happened to reach them — run under a full worker
// pool to make the distinction real.
func TestDeferBarrierPartitionOrder(t *testing.T) {
	g := NewGroup(3, 3)
	g.TightenLookahead(Microsecond)
	var order []string // appended only from coordinator context
	for i := 2; i >= 0; i-- {
		i := i
		g.Engine(i).At(5*Microsecond, func() {
			g.DeferBarrier(i, func() { order = append(order, fmt.Sprintf("p%d", i)) })
		})
	}
	g.RunUntil(10*Microsecond, 3)
	want := []string{"p0", "p1", "p2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("deferred commits ran in order %v, want partition order %v", order, want)
	}
}

// TestDeferBarrierDeterminismAcrossWorkers: the ping mesh with every
// partition deferring shared-state mutations mid-window produces the
// same mutation log at any worker count.
func TestDeferBarrierDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		const parts, deadline = 4, 200 * Microsecond
		const lookahead = 900 * Nanosecond
		g := NewGroup(11, parts)
		g.TightenLookahead(lookahead)
		shared := 0
		var out []string
		for i := 0; i < parts; i++ {
			i := i
			e := g.Engine(i)
			var tick func(n uint64)
			tick = func(n uint64) {
				draw := e.Rand().Uint64()
				if n%5 == uint64(i) {
					at, d := e.Now(), draw
					g.DeferBarrier(i, func() {
						shared++
						out = append(out, fmt.Sprintf("p%d t=%d draw=%d shared=%d", i, int64(at), d%997, shared))
					})
				}
				if next := e.Now() + Time(300+draw%900); next <= deadline {
					e.At(next, func() { tick(n + 1) })
				}
			}
			e.At(Time(i+1)*Microsecond, func() { tick(0) })
		}
		g.RunUntil(deadline, workers)
		return fmt.Sprint(out)
	}
	base := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); got != base {
			t.Fatalf("deferred-commit run diverged at %d workers", w)
		}
	}
}

// TestPartitionRecordLayout: the per-partition record keeps what senders
// write and what the window's owner writes a cache line apart, and
// neighbouring records do not share one.
func TestPartitionRecordLayout(t *testing.T) {
	var p partition
	if off := unsafe.Offsetof(p.out); off != cacheLine {
		t.Errorf("owner half starts at byte %d, want %d", off, cacheLine)
	}
	if size := unsafe.Sizeof(p); size != 2*cacheLine {
		t.Errorf("partition record is %d bytes, want %d", size, 2*cacheLine)
	}
}

// buildHeartbeats arms every partition of a fresh group with an event
// every lookahead that also pings the next partition, so each lookahead
// is exactly one round with cross-partition traffic in it. Every closure
// is bound once: in steady state the model allocates nothing.
func buildHeartbeats(parts int) (g *Group, delivered []uint64) {
	const lookahead = Microsecond
	g = NewGroup(5, parts)
	g.TightenLookahead(lookahead)
	delivered = make([]uint64, parts)
	for i := 0; i < parts; i++ {
		e, dst := g.Engine(i), (i+1)%parts
		recv := func() { delivered[dst]++ }
		var beat func()
		beat = func() {
			g.Inject(i, dst, e.Now()+lookahead, recv)
			e.After(lookahead, beat)
		}
		e.At(0, beat)
	}
	return g, delivered
}

// TestRoundAllocFree: in steady state a round allocates nothing — not
// for the inbox batches (two arrays per partition, flipped and kept),
// not for the sort, not for the barrier. What a multi-worker RunUntil
// does allocate is its helpers, once per call, so a batch of 1000
// rounds carrying 4000 cross-partition events must stay under a
// handful; one allocation per round or per inject would read ≥ 1000.
func TestRoundAllocFree(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g, _ := buildHeartbeats(4)
		batch := func() { g.RunUntil(g.Engine(0).Now()+1000*Microsecond, workers) }
		batch() // warm-up: heaps, free lists and both inbox arrays grow
		rounds := g.Rounds()
		allocs := testing.AllocsPerRun(5, batch)
		if got := g.Rounds() - rounds; got < 6000 {
			t.Fatalf("workers=%d: %d rounds measured, want 1000 per batch", workers, got)
		}
		if max := float64(4 * (workers - 1)); allocs > max {
			t.Errorf("workers=%d: %.0f allocations per 1000-round RunUntil, want ≤ %.0f (starting a helper makes 2)",
				workers, allocs, max)
		}
	}
}

// TestInjectAllocFree: once both of a partition's inbox arrays have
// grown, injecting into it and draining it allocates nothing — also from
// outside RunUntil, the way the layer drivers use it.
func TestInjectAllocFree(t *testing.T) {
	g := NewGroup(1, 2)
	g.TightenLookahead(Microsecond)
	got := 0
	fn := func() { got++ }
	burst := func() {
		for k := 0; k < 8; k++ {
			g.Inject(0, 1, g.Engine(0).Now()+Microsecond, fn)
		}
		g.RunUntil(g.Engine(0).Now()+10*Microsecond, 1)
	}
	burst()
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Errorf("%.2f allocations per burst of 8 injects, want 0", allocs)
	}
	if got != 8*103 {
		t.Fatalf("%d injected events ran, want %d", got, 8*103)
	}
}

// TestBackToBackRunUntil is the helpers' lifetime property: a thousand
// one-round RunUntil calls in a row on one group, each starting and
// joining its own helpers. A helper that outlived its call, or a round
// number that restarted with each call, would let a late sweep claim a
// window of the next call's round — a data race on the partition, and
// a double-executed or skipped window in the counts below.
func TestBackToBackRunUntil(t *testing.T) {
	for _, workers := range []int{2, 4} {
		const parts, calls = 4, 1000
		g, delivered := buildHeartbeats(parts)
		for k := 0; k < calls; k++ {
			before := g.Rounds()
			g.RunUntil(Time(k)*Microsecond, workers)
			if got := g.Rounds() - before; got != 1 {
				t.Fatalf("workers=%d call %d: %d rounds, want 1", workers, k, got)
			}
		}
		// Call k ran the beats at k µs and the pings they sent at k-1 µs.
		for i, n := range delivered {
			if n != calls-1 {
				t.Errorf("workers=%d partition %d: %d pings delivered, want %d", workers, i, n, calls-1)
			}
		}
		if got, want := g.ExecutedEvents(), uint64(parts*(2*calls-1)); got != want {
			t.Errorf("workers=%d: %d events executed, want %d", workers, got, want)
		}
	}
}

// TestHelpersParkAndResume: helpers that find no round to run give up
// their P — here all four workers share one, and a barrier action yields
// it for longer than the spin budget, so every helper parks mid-run —
// and the run carries on to the serial result when rounds resume.
func TestHelpersParkAndResume(t *testing.T) {
	const parts, deadline = 4, 200 * Microsecond
	run := func(workers int) [][]pingRecord {
		g, logs := buildPingMesh(3, parts, deadline)
		g.AtBarrier(100*Microsecond, func() {
			for i := 0; i < 2*spinBudget/yieldEvery; i++ {
				runtime.Gosched()
			}
		})
		g.RunUntil(deadline, workers)
		return logs
	}
	want := fmt.Sprint(run(1))
	atProcs(1, func() {
		if got := fmt.Sprint(run(parts)); got != want {
			t.Fatalf("run diverged from serial after the helpers parked")
		}
	})
}

// TestInboxTieOrder pins the two places where code other than a window
// runs after cross-partition events are pending: the inbox event takes
// its heap seq first, so it runs before a same-time event scheduled by a
// barrier action, or by the caller between two RunUntil calls. The
// windows drain their own inboxes, so each case fails unless the
// coordinator drains serially before handing control over.
func TestInboxTieOrder(t *testing.T) {
	const at = 5 * Microsecond
	for _, workers := range []int{1, 2, 4} {
		arm := func() (*Group, *[]string) {
			g := NewGroup(1, 4)
			g.TightenLookahead(Microsecond)
			order := new([]string) // appended only by partition 1's events
			g.Engine(0).At(Microsecond, func() {
				g.Inject(0, 1, at, func() { *order = append(*order, "inbox") })
			})
			return g, order
		}

		g, order := arm()
		g.AtBarrier(3*Microsecond, func() {
			g.Engine(1).At(at, func() { *order = append(*order, "barrier") })
		})
		g.RunUntil(10*Microsecond, workers)
		if got := fmt.Sprint(*order); got != "[inbox barrier]" {
			t.Errorf("workers=%d: inbox event vs barrier-scheduled event ran %v, want inbox first", workers, got)
		}

		g, order = arm()
		g.RunUntil(3*Microsecond, workers)
		g.Engine(1).At(at, func() { *order = append(*order, "caller") })
		g.RunUntil(10*Microsecond, workers)
		if got := fmt.Sprint(*order); got != "[inbox caller]" {
			t.Errorf("workers=%d: inbox event vs caller-scheduled event ran %v, want inbox first", workers, got)
		}
	}
}

// TestGroupInjectsStraddleWheel runs cross-partition traffic whose
// injects land both inside and beyond the wheel's span of the
// destination's clock, beside local events at the same instants, and
// advances the group in RunUntil steps and through barrier actions,
// each a clock normalization that must migrate far events. Every event
// must fire at its time, and at 1, 2 and 4 workers each partition's
// history must be the one a single (at, seq) heap produces, pinned by
// its digest.
func TestGroupInjectsStraddleWheel(t *testing.T) {
	const (
		parts     = 4
		lookahead = 900 * Nanosecond
		want      = "0076b0a778c8cfb5c7a64604709f048eb0190323f6484d5215309f0c24d32380"
	)
	delays := []Time{lookahead, lookahead + 100, wheelSpan - 1, wheelSpan, wheelSpan + 1, 9000, 20000}
	run := func(workers int) string {
		g := NewGroup(7, parts)
		g.TightenLookahead(lookahead)
		logs := make([][]string, parts)
		for i := 0; i < parts; i++ {
			i, e := i, g.Engine(i)
			var tick func(n int)
			tick = func(n int) {
				draw := e.Rand().Uint64()
				dst := int(draw % parts)
				at := e.Now() + delays[draw/parts%uint64(len(delays))]
				mark := func(p int, what string) func() {
					return func() {
						if now := g.Engine(p).Now(); now != at {
							t.Errorf("%s from partition %d fired at %v, scheduled for %v", what, i, now, at)
						}
						logs[p] = append(logs[p], fmt.Sprintf("%d %s %d.%d", at, what, i, n))
					}
				}
				if dst != i {
					g.Inject(i, dst, at, mark(dst, "inject"))
				}
				e.At(at, mark(i, "local")) // ties with injects landing at at
				if n < 400 {
					e.At(e.Now()+Time(50+draw%200), func() { tick(n + 1) })
				}
			}
			e.Defer(func() { tick(0) })
		}
		// Events scheduled right after a clock normalization — by barrier
		// actions (clocks at B-1) and by the caller between RunUntil calls
		// (clocks at the deadline) — land beside far events the
		// normalization brought into range.
		outside := func(what string, n int) {
			for p := 0; p < parts; p++ {
				p, e := p, g.Engine(p)
				for k, d := range delays {
					at, tag := e.Now()+d, fmt.Sprintf("%s %d.%d", what, n, k)
					e.At(at, func() {
						if e.Now() != at {
							t.Errorf("%s fired at %v, scheduled for %v", tag, e.Now(), at)
						}
						logs[p] = append(logs[p], fmt.Sprintf("%d %s", at, tag))
					})
				}
			}
		}
		for k, at := range []Time{10 * Microsecond, 30*Microsecond + 3} {
			g.AtBarrier(at, func() { outside("barrier", k) })
		}
		for k, deadline := range []Time{20 * Microsecond, 20*Microsecond + 1, 45 * Microsecond, MaxTime} {
			g.RunUntil(deadline, workers)
			if deadline < MaxTime {
				outside("caller", k)
			}
		}
		sum := sha256.New()
		for p := range logs {
			fmt.Fprintln(sum, p, logs[p])
		}
		return fmt.Sprintf("%x", sum.Sum(nil))
	}
	for _, workers := range []int{1, 2, 4} {
		if got := run(workers); got != want {
			t.Errorf("workers=%d: history digest %s, want %s", workers, got, want)
		}
	}
}
