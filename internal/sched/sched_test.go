package sched

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/sim"
)

// harness bundles a scheduler with controllable hooks.
type harness struct {
	eng      *sim.Engine
	s        *Scheduler
	runCost  map[actor.ID]sim.Time
	forwards []actor.Msg
	pushes   []*actor.Actor
	pulls    int
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{eng: sim.NewEngine(1), runCost: map[actor.ID]sim.Time{}}
	hooks := Hooks{
		Run: func(a *actor.Actor, m actor.Msg) sim.Time {
			if c, ok := h.runCost[a.ID]; ok {
				return c
			}
			return sim.Microsecond
		},
		FwdTax:  func(bytes int) sim.Time { return 200 * sim.Nanosecond },
		Forward: func(m actor.Msg) { h.forwards = append(h.forwards, m) },
		Quantum: func(int) sim.Time { return 3 * sim.Microsecond },
		PushToHost: func(a *actor.Actor) {
			h.pushes = append(h.pushes, a)
			// Complete migration instantly: remove and forward mailbox.
			h.s.RemoveActor(a.ID)
			a.State = actor.Clean
			h.s.MigrationDone()
		},
		PullFromHost: func() bool { h.pulls++; return false },
	}
	h.s = New(h.eng, cfg, hooks)
	return h
}

func (h *harness) addActor(id actor.ID, cost sim.Time) *actor.Actor {
	a := &actor.Actor{ID: id}
	h.runCost[id] = cost
	h.s.AddActor(a)
	return a
}

func baseConfig(cores int) Config {
	cfg := DefaultConfig(cores)
	cfg.TailThresh = 0 // disabled unless a test sets it
	cfg.MeanThresh = 0
	return cfg
}

func TestFCFSExecutesAndCounts(t *testing.T) {
	h := newHarness(t, baseConfig(2))
	a := h.addActor(1, 2*sim.Microsecond)
	for i := 0; i < 10; i++ {
		h.s.Arrive(actor.Msg{Dst: 1, WireSize: 512})
	}
	h.eng.Run()
	if h.s.Completed != 10 {
		t.Fatalf("Completed = %d", h.s.Completed)
	}
	if a.ExecStats.Count() != 10 {
		t.Fatalf("actor invoked %d times", a.ExecStats.Count())
	}
	if a.ExecStats.Mean() <= 0 {
		t.Fatal("no sojourn stats recorded")
	}
	// 10 msgs × 2.2µs on 2 cores ≈ 11µs wall.
	if h.eng.Now() > 15*sim.Microsecond || h.eng.Now() < 11*sim.Microsecond {
		t.Fatalf("makespan %v implausible", h.eng.Now())
	}
}

func TestUnownedMessagesForwarded(t *testing.T) {
	h := newHarness(t, baseConfig(1))
	h.s.Arrive(actor.Msg{Dst: 99, WireSize: 64})
	h.eng.Run()
	if len(h.forwards) != 1 || h.s.Forwarded != 1 {
		t.Fatalf("forwards = %d", len(h.forwards))
	}
}

func TestParallelSpeedup(t *testing.T) {
	run := func(cores int) sim.Time {
		h := newHarness(t, baseConfig(cores))
		h.addActor(1, 10*sim.Microsecond)
		for i := 0; i < 40; i++ {
			h.s.Arrive(actor.Msg{Dst: 1})
		}
		h.eng.Run()
		return h.eng.Now()
	}
	t1, t4 := run(1), run(4)
	if t4 >= t1/3 {
		t.Fatalf("4 cores (%v) should be ≈4x faster than 1 (%v)", t4, t1)
	}
}

func TestExclusiveActorNeverConcurrent(t *testing.T) {
	cfg := baseConfig(4)
	h := newHarness(t, cfg)
	a := h.addActor(1, 5*sim.Microsecond)
	a.Exclusive = true
	maxRunning := 0
	h.runCost[1] = 5 * sim.Microsecond
	// Hook into Run via a wrapper: re-create scheduler hooks is complex;
	// instead sample concurrency through the actor's running counter on
	// every event by scheduling probes.
	for i := 0; i < 20; i++ {
		h.s.Arrive(actor.Msg{Dst: 1})
	}
	for at := sim.Time(0); at < 200*sim.Microsecond; at += sim.Microsecond {
		h.eng.At(at, func() {
			if a.Running() > maxRunning {
				maxRunning = a.Running()
			}
		})
	}
	h.eng.Run()
	if maxRunning > 1 {
		t.Fatalf("exclusive actor ran on %d cores concurrently", maxRunning)
	}
	if h.s.Completed != 20 {
		t.Fatalf("Completed = %d", h.s.Completed)
	}
}

func TestSharedActorRunsConcurrently(t *testing.T) {
	h := newHarness(t, baseConfig(4))
	a := h.addActor(1, 5*sim.Microsecond)
	maxRunning := 0
	for i := 0; i < 20; i++ {
		h.s.Arrive(actor.Msg{Dst: 1})
	}
	for at := sim.Time(0); at < 100*sim.Microsecond; at += sim.Microsecond {
		h.eng.At(at, func() {
			if a.Running() > maxRunning {
				maxRunning = a.Running()
			}
		})
	}
	h.eng.Run()
	if maxRunning < 2 {
		t.Fatalf("shared actor should use multiple cores, max = %d", maxRunning)
	}
}

func TestDowngradeOnTailBreach(t *testing.T) {
	cfg := baseConfig(2)
	cfg.TailThresh = 30 // µs
	h := newHarness(t, cfg)
	fast := h.addActor(1, 1*sim.Microsecond)
	slow := h.addActor(2, 60*sim.Microsecond) // blows the tail threshold
	// Spaced arrivals keep queueing low, so per-actor dispersion
	// reflects service-time variance and the slow actor is the victim.
	for i := 0; i < 30; i++ {
		at := sim.Time(i) * 80 * sim.Microsecond
		h.eng.At(at, func() { h.s.Arrive(actor.Msg{Dst: 1}) })
		h.eng.At(at+40*sim.Microsecond, func() { h.s.Arrive(actor.Msg{Dst: 2}) })
	}
	h.eng.Run()
	if h.s.Downgrades == 0 {
		t.Fatal("no downgrade despite tail breach")
	}
	if len(h.pushes) == 0 && !slow.InDRR {
		t.Fatal("slow actor neither in DRR nor migrated")
	}
	if fast.InDRR {
		t.Fatal("low-dispersion actor should stay in FCFS")
	}
	if h.s.CoreMoves == 0 {
		t.Fatal("no core was ever converted to DRR")
	}
}

func TestDRRServesMailboxed(t *testing.T) {
	cfg := baseConfig(2)
	h := newHarness(t, cfg)
	a := h.addActor(1, 2*sim.Microsecond)
	// Force the actor into DRR directly.
	a.InDRR = true
	h.s.drrRunnable = append(h.s.drrRunnable, a)
	h.s.ensureDRRCore()
	for i := 0; i < 8; i++ {
		h.s.Arrive(actor.Msg{Dst: 1})
	}
	h.eng.Run()
	if a.ExecStats.Count() != 8 {
		t.Fatalf("DRR actor served %d of 8", a.ExecStats.Count())
	}
	if h.s.DRRBacklog() != 0 {
		t.Fatal("mailbox not drained")
	}
}

func TestUpgradeRestoresFCFS(t *testing.T) {
	cfg := baseConfig(2)
	cfg.TailThresh = 1000 // high: tail always below (1-α)·thresh → upgrade fires
	h := newHarness(t, cfg)
	a := h.addActor(1, 1*sim.Microsecond)
	a.InDRR = true
	h.s.drrRunnable = append(h.s.drrRunnable, a)
	h.s.ensureDRRCore()
	for i := 0; i < 5; i++ {
		h.s.Arrive(actor.Msg{Dst: 1})
	}
	h.eng.Run()
	if a.InDRR {
		t.Fatal("actor not upgraded despite low tail")
	}
	if h.s.Upgrades == 0 {
		t.Fatal("upgrade counter zero")
	}
	f, d := h.s.CoreModes()
	if d != 0 || f != 2 {
		t.Fatalf("cores after collapse: fcfs=%d drr=%d", f, d)
	}
	// All messages eventually served.
	if a.ExecStats.Count() != 5 {
		t.Fatalf("served %d of 5", a.ExecStats.Count())
	}
}

func TestPushMigrationOnMeanBreach(t *testing.T) {
	cfg := baseConfig(1)
	cfg.MeanThresh = 5 // µs — easily breached by a 30µs actor
	h := newHarness(t, cfg)
	heavy := h.addActor(1, 30*sim.Microsecond)
	for i := 0; i < 20; i++ {
		h.s.Arrive(actor.Msg{Dst: 1})
	}
	h.eng.Run()
	if len(h.pushes) == 0 {
		t.Fatal("no push migration despite mean breach")
	}
	if h.pushes[0] != heavy {
		t.Fatal("wrong actor migrated")
	}
	// After migration the remaining messages are forwarded to the host.
	if len(h.forwards) == 0 {
		t.Fatal("post-migration traffic not forwarded")
	}
}

func TestPullOnLowLoad(t *testing.T) {
	cfg := baseConfig(2)
	cfg.MeanThresh = 1000 // mean stays way below (1-α)·thresh
	h := newHarness(t, cfg)
	h.addActor(1, 1*sim.Microsecond)
	// Spread arrivals past the management monitor period so the pull
	// condition is actually evaluated.
	for i := 0; i < 20; i++ {
		at := sim.Time(i) * 50 * sim.Microsecond
		h.eng.At(at, func() { h.s.Arrive(actor.Msg{Dst: 1}) })
	}
	h.eng.Run()
	if h.pulls == 0 {
		t.Fatal("no pull attempt despite low load and idle cores")
	}
}

func TestQThreshMailboxMigration(t *testing.T) {
	h := newHarness(t, baseConfig(2))
	a := h.addActor(1, 20*sim.Microsecond)
	a.InDRR = true
	h.s.drrRunnable = append(h.s.drrRunnable, a)
	h.s.ensureDRRCore()
	for i := 0; i < qThresh+30; i++ {
		h.s.Arrive(actor.Msg{Dst: 1})
	}
	h.eng.Run()
	if len(h.pushes) == 0 {
		t.Fatal("overloaded DRR mailbox did not trigger migration")
	}
}

func TestPinnedActorNotMigrated(t *testing.T) {
	cfg := baseConfig(1)
	cfg.MeanThresh = 2
	h := newHarness(t, cfg)
	a := h.addActor(1, 30*sim.Microsecond)
	a.PinNIC = true
	for i := 0; i < 10; i++ {
		h.s.Arrive(actor.Msg{Dst: 1})
	}
	h.eng.Run()
	if len(h.pushes) != 0 {
		t.Fatal("pinned actor was migrated")
	}
}

func TestShuffleQueueSteeringAndStealing(t *testing.T) {
	q := newShuffleQueue(4)
	// All messages hash to core 1's queue.
	for i := 0; i < 8; i++ {
		q.push(actor.Msg{FlowID: 1, Kind: actor.Kind(i)})
	}
	// Core 1 gets FIFO order.
	m, ok := q.pop(1)
	if !ok || m.Kind != 0 {
		t.Fatalf("own-queue pop = %v %v", m.Kind, ok)
	}
	// Core 3 steals from the victim's head so the flow stays FIFO: the
	// oldest queued message moves, never a younger one ahead of it.
	m, ok = q.pop(3)
	if !ok || m.Kind != 1 {
		t.Fatalf("steal = %v %v, want kind 1 (victim's head)", m.Kind, ok)
	}
	if q.steals != 1 {
		t.Fatalf("Steals = %d", q.steals)
	}
	if q.len() != 6 {
		t.Fatalf("len = %d", q.len())
	}
}

func TestShuffleSchedulerDrainsEverything(t *testing.T) {
	cfg := baseConfig(4)
	cfg.Ingress = ShuffleLayer
	h := newHarness(t, cfg)
	a := h.addActor(1, sim.Microsecond)
	for i := 0; i < 50; i++ {
		h.s.Arrive(actor.Msg{Dst: 1, FlowID: uint64(i % 2)}) // only 2 flows: imbalance
	}
	h.eng.Run()
	if a.ExecStats.Count() != 50 {
		t.Fatalf("served %d of 50", a.ExecStats.Count())
	}
}

func TestUtilizationTracksLoad(t *testing.T) {
	h := newHarness(t, baseConfig(2))
	h.addActor(1, 10*sim.Microsecond)
	for i := 0; i < 10; i++ {
		h.s.Arrive(actor.Msg{Dst: 1})
	}
	h.eng.Run()
	// 10×~10.2µs over 2 cores in ~51µs: both cores ≈100% busy while
	// running. After Run, engine time == makespan, so the busy time the
	// cores account (what autoscaling reads) is ≈ 2 × makespan.
	var busy sim.Time
	for _, c := range h.s.cores {
		c.settle()
		busy += c.busyAccum
	}
	if f := float64(busy) / float64(int64(len(h.s.cores))*int64(h.eng.Now())); f < 0.8 {
		t.Fatalf("FCFS utilization = %v, want ≈1 under saturation", f)
	}
}

func TestSchedulerValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	ok := func(f func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		f()
		return
	}
	if !ok(func() { New(eng, Config{cores: 0}, Hooks{}) }) {
		t.Error("zero cores accepted")
	}
	if !ok(func() { New(eng, Config{cores: 1}, Hooks{}) }) {
		t.Error("missing hooks accepted")
	}
}

func TestStringSummary(t *testing.T) {
	h := newHarness(t, baseConfig(2))
	if h.s.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestIOKernelDispatcherServes(t *testing.T) {
	cfg := baseConfig(4)
	cfg.Ingress = IOKernel
	h := newHarness(t, cfg)
	a := h.addActor(1, 2*sim.Microsecond)
	for i := 0; i < 40; i++ {
		h.s.Arrive(actor.Msg{Dst: 1, FlowID: uint64(i)})
	}
	h.eng.Run()
	if a.ExecStats.Count() != 40 {
		t.Fatalf("served %d of 40 via IOKernel dispatcher", a.ExecStats.Count())
	}
	// The dispatcher core never executes actors.
	f, _ := h.s.CoreModes()
	if f != 3 {
		t.Fatalf("FCFS workers = %d, want 3 (one core is the dispatcher)", f)
	}
	for _, c := range h.s.cores {
		if c.mode == modeDispatch && c.executed != 0 {
			t.Fatal("dispatcher executed actor work")
		}
	}
}

func TestIOKernelBalancesWorkers(t *testing.T) {
	cfg := baseConfig(4)
	cfg.Ingress = IOKernel
	h := newHarness(t, cfg)
	h.addActor(1, 5*sim.Microsecond)
	// Several flows: the dispatcher spreads them across workers by queue
	// depth. (A single flow would — correctly — stay pinned to one worker
	// while it has messages pending, to preserve per-flow FIFO.)
	for i := 0; i < 30; i++ {
		h.s.Arrive(actor.Msg{Dst: 1, FlowID: uint64(7 + i%3)})
	}
	h.eng.Run()
	busyWorkers := 0
	for _, c := range h.s.cores {
		if c.mode == modeFCFS && c.executed > 0 {
			busyWorkers++
		}
	}
	if busyWorkers < 2 {
		t.Fatalf("dispatcher used %d workers for three flows, want spread", busyWorkers)
	}
}

func TestIOKernelPinsFlowWhilePending(t *testing.T) {
	cfg := baseConfig(4)
	cfg.Ingress = IOKernel
	h := newHarness(t, cfg)
	h.addActor(1, 5*sim.Microsecond)
	// One flow only: while it has messages pending at a worker, every
	// subsequent dispatch must follow to the same worker — spreading a
	// single flow across workers would reorder it.
	for i := 0; i < 30; i++ {
		h.s.Arrive(actor.Msg{Dst: 1, FlowID: 7})
	}
	h.eng.Run()
	busyWorkers := 0
	for _, c := range h.s.cores {
		if c.mode == modeFCFS && c.executed > 0 {
			busyWorkers++
		}
	}
	if busyWorkers != 1 {
		t.Fatalf("single flow ran on %d workers, want 1 (flow affinity)", busyWorkers)
	}
}

func TestIOKernelNeedsTwoCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("1-core IOKernel accepted")
		}
	}()
	cfg := baseConfig(1)
	cfg.Ingress = IOKernel
	newHarness(t, cfg)
}
