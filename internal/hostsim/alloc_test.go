package hostsim

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/sim"
)

// TestCoreCyclesAllocFree: a host core's in-service operation lives on
// the core, so once each core has run (and its queue has grown to the
// burst) arrival→execution allocates nothing — exactly, via
// testing.AllocsPerRun. The exclusive actor adds the park-on-mailbox
// cycle, the unknown destination the Unowned one.
func TestCoreCyclesAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		actor *actor.Actor
	}{
		{"exec", &actor.Actor{ID: 1}},
		{"park-exclusive", &actor.Actor{ID: 1, Exclusive: true}},
		{"unowned", nil},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			unowned := 0
			h := New(eng, Config{Cores: 4, Steal: true}, Hooks{
				Run:     func(*actor.Actor, actor.Msg) sim.Time { return sim.Microsecond },
				Unowned: func(actor.Msg) { unowned++ },
			})
			if tc.actor != nil {
				h.AddActor(tc.actor)
			}
			const burst = 16
			var sent uint64
			round := func() {
				for i := 0; i < burst; i++ {
					h.Arrive(actor.Msg{Dst: 1, FlowID: sent, WireSize: 256})
					sent++
				}
				eng.Run()
			}
			round()
			round()
			if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
				t.Fatalf("%v allocs per burst of %d, want 0", allocs, burst)
			}
			if done := h.Completed + uint64(unowned); done != sent || h.Backlog() != 0 {
				t.Fatalf("%d of %d messages handled, backlog %d", done, sent, h.Backlog())
			}
		})
	}
}

// TestOccupyTwicePanics: one operation per core at a time is the
// invariant the in-core operation record rests on.
func TestOccupyTwicePanics(t *testing.T) {
	x := newHH(1, false)
	c := x.h.cores[0]
	c.occupy(sim.Microsecond, hostOp{kind: opUnowned})
	defer func() {
		if recover() == nil {
			t.Fatal("second occupy on a busy core did not panic")
		}
	}()
	c.occupy(sim.Microsecond, hostOp{kind: opUnowned})
}
