package hostsim

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/sim"
)

type hh struct {
	eng  *sim.Engine
	h    *Host
	cost map[actor.ID]sim.Time
	lost []actor.Msg
}

func newHH(cores int, steal bool) *hh {
	x := &hh{eng: sim.NewEngine(1), cost: map[actor.ID]sim.Time{}}
	x.h = New(x.eng, Config{Cores: cores, Steal: steal}, Hooks{
		Run: func(a *actor.Actor, m actor.Msg) sim.Time {
			if c, ok := x.cost[a.ID]; ok {
				return c
			}
			return sim.Microsecond
		},
		Unowned: func(m actor.Msg) { x.lost = append(x.lost, m) },
	})
	return x
}

func (x *hh) add(id actor.ID, cost sim.Time) *actor.Actor {
	a := &actor.Actor{ID: id}
	x.cost[id] = cost
	x.h.AddActor(a)
	return a
}

func TestHostExecutes(t *testing.T) {
	x := newHH(2, false)
	a := x.add(1, 2*sim.Microsecond)
	for i := 0; i < 10; i++ {
		x.h.Arrive(actor.Msg{Dst: 1, FlowID: uint64(i)})
	}
	x.eng.Run()
	if x.h.Completed != 10 || a.ExecStats.Count() != 10 {
		t.Fatalf("completed %d, invoked %d", x.h.Completed, a.ExecStats.Count())
	}
	if x.h.Backlog() != 0 {
		t.Fatal("backlog left")
	}
}

func TestFlowSteeringWithoutStealingImbalances(t *testing.T) {
	x := newHH(4, false)
	x.add(1, sim.Microsecond)
	// All messages in one flow land on one core.
	for i := 0; i < 20; i++ {
		x.h.Arrive(actor.Msg{Dst: 1, FlowID: 8}) // 8 % 4 = core 0
	}
	x.eng.Run()
	if x.h.cores[0].executed != 20 {
		t.Fatalf("core 0 executed %d, want all 20", x.h.cores[0].executed)
	}
	for i := 1; i < 4; i++ {
		if x.h.cores[i].executed != 0 {
			t.Fatalf("core %d executed %d without stealing", i, x.h.cores[i].executed)
		}
	}
}

func TestWorkStealingRepairsImbalance(t *testing.T) {
	x := newHH(4, true)
	x.add(1, 5*sim.Microsecond)
	for i := 0; i < 20; i++ {
		x.h.Arrive(actor.Msg{Dst: 1, FlowID: 8})
	}
	x.eng.Run()
	if x.h.steals == 0 {
		t.Fatal("no steals despite one hot queue")
	}
	others := 0
	for i := 1; i < 4; i++ {
		others += int(x.h.cores[i].executed)
	}
	if others == 0 {
		t.Fatal("stealing cores executed nothing")
	}
}

func TestUnownedMessages(t *testing.T) {
	x := newHH(1, false)
	x.h.Arrive(actor.Msg{Dst: 42})
	x.eng.Run()
	if len(x.lost) != 1 {
		t.Fatalf("unowned messages seen: %d", len(x.lost))
	}
}

func TestCoresUsedMeasuresLoad(t *testing.T) {
	x := newHH(4, true)
	x.add(1, 10*sim.Microsecond)
	// 100 msgs x 10.1µs ≈ 1010µs of work on 4 cores ≈ 253µs wall →
	// CoresUsed ≈ 4.
	for i := 0; i < 100; i++ {
		x.h.Arrive(actor.Msg{Dst: 1, FlowID: uint64(i)})
	}
	x.eng.Run()
	used := x.h.CoresUsed()
	if used < 3.2 || used > 4.01 {
		t.Fatalf("CoresUsed = %v, want ≈4 under saturation", used)
	}
}

func TestCoresUsedLowUnderLightLoad(t *testing.T) {
	x := newHH(4, true)
	x.add(1, sim.Microsecond)
	// One message every 100µs: utilization ≈ 1.1/100 of one core.
	for i := 0; i < 50; i++ {
		at := sim.Time(i) * 100 * sim.Microsecond
		i := i
		x.eng.At(at, func() { x.h.Arrive(actor.Msg{Dst: 1, FlowID: uint64(i)}) })
	}
	x.eng.Run()
	if used := x.h.CoresUsed(); used > 0.1 {
		t.Fatalf("CoresUsed = %v, want ≈0.01", used)
	}
}

func TestExclusiveHostActor(t *testing.T) {
	x := newHH(4, true)
	a := x.add(1, 5*sim.Microsecond)
	a.Exclusive = true
	maxRun := 0
	for i := 0; i < 12; i++ {
		x.h.Arrive(actor.Msg{Dst: 1, FlowID: uint64(i)})
	}
	for at := sim.Time(0); at < 100*sim.Microsecond; at += sim.Microsecond {
		x.eng.At(at, func() {
			if a.Running() > maxRun {
				maxRun = a.Running()
			}
		})
	}
	x.eng.Run()
	if maxRun > 1 {
		t.Fatalf("exclusive actor concurrency %d", maxRun)
	}
	if a.ExecStats.Count() != 12 {
		t.Fatalf("invoked %d of 12", a.ExecStats.Count())
	}
}

func TestLeastLoadedActor(t *testing.T) {
	x := newHH(1, false)
	hot := x.add(1, sim.Microsecond)
	cold := x.add(2, sim.Microsecond)
	pinned := x.add(3, sim.Microsecond)
	pinned.PinHost = true
	for i := 0; i < 50; i++ {
		x.h.Arrive(actor.Msg{Dst: 1})
	}
	x.h.Arrive(actor.Msg{Dst: 2})
	x.h.Arrive(actor.Msg{Dst: 3})
	x.eng.Run()
	if got := x.h.LeastLoadedActor(); got != cold {
		t.Fatalf("LeastLoadedActor = %v, want cold actor", got)
	}
	_ = hot
}

func TestRemoveActor(t *testing.T) {
	x := newHH(1, false)
	x.add(1, sim.Microsecond)
	x.h.RemoveActor(1)
	if len(x.h.actors) != 0 {
		t.Fatal("actor not removed")
	}
	x.h.Arrive(actor.Msg{Dst: 1})
	x.eng.Run()
	if len(x.lost) != 1 {
		t.Fatal("message to removed actor not routed to Unowned")
	}
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, f := range []func(){
		func() { New(eng, Config{Cores: 0}, Hooks{Run: func(*actor.Actor, actor.Msg) sim.Time { return 0 }}) },
		func() { New(eng, Config{Cores: 1}, Hooks{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid config accepted")
				}
			}()
			f()
		}()
	}
}

// TestStealTakesVictimsNewestMessage pins the steal end: an idle core
// takes the *newest* message of the longest queue, so a flow's latest
// request can overtake its queued predecessors. That is the per-flow
// FIFO hazard sched.shuffleQueue fixed by stealing the head; it is kept
// here because changing it reorders host executions (see pop).
func TestStealTakesVictimsNewestMessage(t *testing.T) {
	eng := sim.NewEngine(1)
	var order []uint64
	h := New(eng, Config{Cores: 2, Steal: true}, Hooks{
		Run: func(_ *actor.Actor, m actor.Msg) sim.Time {
			order = append(order, m.FlowID)
			return 10 * sim.Microsecond
		},
	})
	h.AddActor(&actor.Actor{ID: 1})
	for _, flow := range []uint64{0, 2, 4} { // all steer to core 0
		h.Arrive(actor.Msg{Dst: 1, FlowID: flow})
	}
	eng.Run()
	want := []uint64{0, 4, 2}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("execution order %v, want %v (core 1 steals the newest)", order, want)
	}
	if h.steals != 1 {
		t.Fatalf("Steals = %d, want 1", h.steals)
	}
}
