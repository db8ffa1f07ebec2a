package sched

import (
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
// scheduler keeps.
func TestModeSwitchDecisionsAllocFree(t *testing.T) {
	h := newHarness(t, baseConfig(4))
	for id := actor.ID(1); id <= 8; id++ {
		a := &actor.Actor{ID: id}
		h.s.AddActor(a)
		for i := 0; i < 8; i++ {
			a.Observe(10*sim.Microsecond, sim.Time(id)*sim.Microsecond, 256)
		}
	}
	// Tails of 1..8 µs around a median of 4, the heaviest actor already
	// in DRR: every decision computes its median and then declines to
	// switch anybody, which is the common case.
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
