package sched

// Property tests over the three ingress-queue implementations and the
// DRR runnable-queue bookkeeping, driven through internal/invariant:
// randomized push/pop/steal/dispatch interleavings must preserve
// per-flow FIFO and lose or duplicate nothing, and removing an actor
// from the runnable queue mid-round must not skip its neighbors.

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/invariant"
	"repro/internal/sim"
)

// drainPop empties q via pops from rotating cores, dispatching for the
// IOKernel variant as needed.
func drainPop(q inQueue, cores int, sink func(actor.Msg)) {
	iok, isIOK := q.(*iokQueue)
	for q.len() > 0 {
		if isIOK {
			for {
				if _, ok := iok.dispatchOne(); !ok {
					break
				}
			}
		}
		progressed := false
		for core := 0; core < cores; core++ {
			if m, ok := q.pop(core); ok {
				sink(m)
				progressed = true
			}
		}
		if !progressed {
			panic("queue reports backlog but no core can pop")
		}
	}
}

func TestInQueueProperties(t *testing.T) {
	const cores = 4
	impls := []struct {
		name string
		mk   func() inQueue
	}{
		{"shared", func() inQueue { return newSharedQueue() }},
		{"shuffle", func() inQueue { return newShuffleQueue(cores) }},
		{"iokernel", func() inQueue { return newIOKQueue(cores - 1) }},
	}
	for _, im := range impls {
		im := im
		t.Run(im.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				rng := sim.NewEngine(seed).Rand()
				chk := invariant.New(nil)
				q := im.mk()
				q.setAudit(chk.NewQueueAudit(im.name))
				iok, isIOK := q.(*iokQueue)

				// Independent ground truth: per-flow FIFO expectation via a
				// payload sequence carried in Msg.Data, separate from the
				// audit's own bookkeeping.
				expect := map[uint64][]byte{}
				var pushes, pops int
				take := func(m actor.Msg) {
					e := expect[m.FlowID]
					if len(e) == 0 {
						t.Fatalf("seed %d: flow %d popped with nothing expected", seed, m.FlowID)
					}
					if m.Data[0] != e[0] {
						t.Fatalf("seed %d: flow %d popped payload %d, want %d (FIFO broken)",
							seed, m.FlowID, m.Data[0], e[0])
					}
					expect[m.FlowID] = e[1:]
					pops++
				}
				flowSeq := map[uint64]byte{}

				for op := 0; op < 4000; op++ {
					switch r := rng.Intn(10); {
					case r < 5: // push
						flow := uint64(rng.Intn(5))
						b := flowSeq[flow]
						flowSeq[flow]++
						expect[flow] = append(expect[flow], b)
						q.push(actor.Msg{FlowID: flow, Data: []byte{b}})
						pushes++
					case isIOK && r < 7: // dispatch central → worker
						iok.dispatchOne()
					default: // pop from a random core (steals on shuffle)
						if m, ok := q.pop(rng.Intn(cores)); ok {
							take(m)
						}
					}
				}
				drainPop(q, cores, take)

				if pops != pushes {
					t.Fatalf("seed %d: pushed %d, popped %d", seed, pushes, pops)
				}
				for flow, e := range expect {
					if len(e) != 0 {
						t.Fatalf("seed %d: flow %d lost %d messages", seed, flow, len(e))
					}
				}
				if err := chk.Err(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if chk.Checks() == 0 {
					t.Fatalf("seed %d: audit never ran", seed)
				}
			}
		})
	}
}

func TestNewShuffleQueueZeroCores(t *testing.T) {
	// A zero-core request (degenerate config) must not build a queue
	// whose push divides by zero.
	q := newShuffleQueue(0)
	q.push(actor.Msg{FlowID: 7})
	if m, ok := q.pop(0); !ok || m.FlowID != 7 {
		t.Fatalf("pop = %v %v", m, ok)
	}
}

// TestDRRDequeueAdjustsCursors is the white-box regression for the
// cursor-skew bug: removing a runnable actor at an index below a core's
// cursor shifts the later actors down one slot, so an unadjusted cursor
// silently skips the actor that moved into the vacated position.
func TestDRRDequeueAdjustsCursors(t *testing.T) {
	cfg := baseConfig(2)
	cfg.AllDRR = true
	h := newHarness(t, cfg)
	h.addActor(1, sim.Microsecond)
	h.addActor(2, sim.Microsecond)
	a3 := h.addActor(3, sim.Microsecond)
	var dc *core
	for _, c := range h.s.cores {
		if c.mode == DRR {
			dc = c
		}
	}
	if dc == nil {
		t.Fatal("AllDRR spawned no DRR core")
	}
	dc.drrPos = 2 // cursor points at actor 3
	h.s.RemoveActor(1)
	if dc.drrPos != 1 {
		t.Fatalf("drrPos = %d after removal below cursor, want 1", dc.drrPos)
	}
	if h.s.drrRunnable[dc.drrPos] != a3 {
		t.Fatalf("cursor points at actor %d, want 3", h.s.drrRunnable[dc.drrPos].ID)
	}
	// Removal at/above the cursor must leave it alone.
	h.s.RemoveActor(3)
	if dc.drrPos != 1 {
		t.Fatalf("drrPos = %d after removal at cursor, want 1", dc.drrPos)
	}
}

// TestDRRFairnessUnderChurn runs the full scheduler with the invariant
// checker attached while the runnable queue churns mid-round; the
// checker's round tracker flags any actor skipped by a stale cursor.
func TestDRRFairnessUnderChurn(t *testing.T) {
	cfg := baseConfig(3)
	cfg.AllDRR = true
	h := newHarness(t, cfg)
	chk := invariant.New(h.eng)
	h.s.EnableInvariants(chk, "test")
	for id := actor.ID(1); id <= 4; id++ {
		h.addActor(id, 2*sim.Microsecond)
	}
	for i := 0; i < 400; i++ {
		i := i
		h.eng.After(sim.Time(i)*sim.Microsecond, func() {
			h.s.Arrive(actor.Msg{Dst: actor.ID(1 + i%4), FlowID: uint64(i % 4), WireSize: 64})
		})
	}
	// Churn: drop the first runnable actor mid-run (its index sits below
	// any advanced cursor), then a middle one later.
	h.eng.After(151*sim.Microsecond, func() { h.s.RemoveActor(1) })
	h.eng.After(287*sim.Microsecond, func() { h.s.RemoveActor(3) })
	h.eng.Run()
	chk.Finish()
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	if chk.Checks() == 0 {
		t.Fatal("checker never ran")
	}
}

// TestSchedulerInvariantsCleanAcrossQueues drives each ingress model
// through the real scheduler with checking on; any FIFO break, fairness
// skip, or busy-time overrun fails the test.
func TestSchedulerInvariantsCleanAcrossQueues(t *testing.T) {
	for _, mode := range []string{"shared", "shuffle", "iokernel"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			cfg := baseConfig(4)
			switch mode {
			case "shuffle":
				cfg.Ingress = ShuffleLayer
			case "iokernel":
				cfg.Ingress = IOKernel
			}
			h := newHarness(t, cfg)
			chk := invariant.New(h.eng)
			h.s.EnableInvariants(chk, mode)
			h.addActor(1, 3*sim.Microsecond)
			h.addActor(2, sim.Microsecond)
			for i := 0; i < 300; i++ {
				i := i
				h.eng.After(sim.Time(i)*sim.Microsecond/2, func() {
					h.s.Arrive(actor.Msg{Dst: actor.ID(1 + i%2), FlowID: uint64(i % 8), WireSize: 128})
				})
			}
			h.eng.Run()
			chk.Finish()
			if err := chk.Err(); err != nil {
				t.Fatal(err)
			}
			if chk.Checks() == 0 {
				t.Fatal("checker never ran")
			}
		})
	}
}
