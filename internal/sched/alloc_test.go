package sched

import (
	"fmt"
	"testing"

	"repro/internal/actor"
	"repro/internal/sim"
)

// TestCoreCyclesAllocFree: a core's in-service operation lives on the
// core, so once each core has run (and the queues have grown to the
// burst) the dispatch cycles allocate nothing — exactly, via
// testing.AllocsPerRun.
func TestCoreCyclesAllocFree(t *testing.T) {
	cases := []struct {
		name  string
		cfg   func(*Config)
		actor *actor.Actor // nil: traffic nobody on the NIC owns, forwarded
	}{
		{"fcfs-exec", nil, &actor.Actor{ID: 1}},
		{"fcfs-forward", nil, nil},
		// An exclusive actor on four cores: three of every four dispatches
		// find it busy and park the message on its mailbox.
		{"fcfs-park-exclusive", nil, &actor.Actor{ID: 1, Exclusive: true}},
		{"drr-exec", func(c *Config) { c.AllDRR = true }, &actor.Actor{ID: 1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			cfg := baseConfig(4)
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			forwarded := 0
			s := New(eng, cfg, Hooks{
				Run:     func(*actor.Actor, actor.Msg) sim.Time { return sim.Microsecond },
				FwdTax:  func(int) sim.Time { return 200 * sim.Nanosecond },
				Forward: func(actor.Msg) { forwarded++ },
				Quantum: func(int) sim.Time { return 3 * sim.Microsecond },
			})
			if tc.actor != nil {
				s.AddActor(tc.actor)
			}
			const burst = 16
			var sent uint64
			round := func() {
				for i := 0; i < burst; i++ {
					s.Arrive(actor.Msg{Dst: 1, FlowID: sent, WireSize: 256})
					sent++
				}
				eng.Run()
			}
			round()
			round()
			if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
				t.Fatalf("%v allocs per burst of %d, want 0", allocs, burst)
			}
			if done := s.Completed + s.Forwarded; done != sent || uint64(forwarded) != s.Forwarded {
				t.Fatalf("%d executed + %d forwarded (%d through the hook) of %d sent", s.Completed, s.Forwarded, forwarded, sent)
			}
		})
	}
}

// TestModeSwitchDecisionsAllocFree: downgrade, upgrade and the periodic
// maybeUpgrade rank the actors' service tails on every call — hundreds of
// thousands of times in a loaded run — in one scratch slice the
// scheduler keeps. A decision that does switch allocates nothing either
// while tracing is off: its trace names are built only for a sink.
func TestModeSwitchDecisionsAllocFree(t *testing.T) {
	// newActors registers eight named actors whose service tails are id
	// µs, except actor 8's, which is heavy.
	newActors := func(heavy sim.Time) *harness {
		h := newHarness(t, baseConfig(4))
		for id := actor.ID(1); id <= 8; id++ {
			a := &actor.Actor{ID: id, Name: fmt.Sprintf("a%d", id)}
			h.s.AddActor(a)
			service := sim.Time(id) * sim.Microsecond
			if id == 8 {
				service = heavy
			}
			for i := 0; i < 8; i++ {
				a.Observe(10*sim.Microsecond, service, 256)
			}
		}
		return h
	}

	// Tails of 1..8 µs around a median of 4, the heaviest actor already
	// in DRR: every decision computes its median and then declines to
	// switch anybody, which is the common case.
	h := newActors(8 * sim.Microsecond)
	h.s.actors[8].InDRR = true
	h.s.drrRunnable = append(h.s.drrRunnable, h.s.actors[8])
	decide := func() {
		h.s.downgrade()
		h.s.upgrade()
		h.s.maybeUpgrade()
	}
	decide()
	if allocs := testing.AllocsPerRun(100, decide); allocs != 0 {
		t.Fatalf("%v allocs per round of mode-switch decisions, want 0", allocs)
	}
	if h.s.Downgrades+h.s.Upgrades != 0 {
		t.Fatalf("%d downgrades, %d upgrades: the decisions were meant to decline", h.s.Downgrades, h.s.Upgrades)
	}

	// A standout actor 8 is downgraded, spawning a DRR core, and then
	// upgraded, collapsing it: two switches and two core moves a cycle.
	h = newActors(40 * sim.Microsecond)
	heavy := h.s.actors[8]
	cycle := func() {
		h.s.downgrade()
		h.s.upgradeActor(heavy)
		h.eng.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%v allocs per downgrade-upgrade cycle, want 0", allocs)
	}
	if cycles := uint64(102); h.s.Downgrades != cycles || h.s.Upgrades != cycles || h.s.CoreMoves != 2*cycles {
		t.Fatalf("%d downgrades, %d upgrades, %d core moves over %d cycles: each cycle was meant to switch twice and move two cores",
			h.s.Downgrades, h.s.Upgrades, h.s.CoreMoves, cycles)
	}
}

// TestOccupyTwicePanics: one operation per core at a time is the
// invariant the in-core operation record rests on.
func TestOccupyTwicePanics(t *testing.T) {
	h := newHarness(t, baseConfig(1))
	c := h.s.cores[0]
	c.occupy(sim.Microsecond, coreOp{kind: opStep})
	defer func() {
		if recover() == nil {
			t.Fatal("second occupy on a busy core did not panic")
		}
	}()
	c.occupy(sim.Microsecond, coreOp{kind: opStep})
}
