package core

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/msgring"
	"repro/internal/sim"
	"repro/internal/spec"
)

// The ring path's pooled handles, counted exactly like the wire path's
// records in wire_test.go.

// ringPair builds one offloaded node with rings of the given size, a
// NIC-resident actor 1 and a host-resident actor 2 that bounce a message
// across the rings: a message with FlowID k > 0 goes to the other actor
// with k-1. execs counts each actor's executions. checked attaches the
// invariant checker before the node is built.
func ringPair(slots int, checked bool) (cl *Cluster, n *Node, execs *[2]int) {
	cl = NewCluster(1)
	if checked {
		cl.AttachCheckers()
	}
	n = cl.AddNode(Config{Name: "srv", NIC: spec.LiquidIOII_CN2350(), RingSlots: slots, DisableMigration: true})
	execs = new([2]int)
	for i, onNIC := range []bool{true, false} {
		id := actor.ID(i + 1)
		a := &actor.Actor{ID: id, PinNIC: onNIC, PinHost: !onNIC, OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			execs[id-1]++
			if m.FlowID > 0 {
				ctx.Send(3-id, actor.Msg{FlowID: m.FlowID - 1})
			}
			return sim.Microsecond
		}}
		if err := n.Register(a, onNIC, 1<<20); err != nil {
			panic(err)
		}
	}
	return cl, n, execs
}

// TestRingCrossingAllocFree: in steady state a local message between a
// NIC actor and a host actor, in either direction — handler, effect, ring
// handle, ring slot, flush or read, DMA transfer, poll — allocates
// nothing, and the handles are back on the node's list.
func TestRingCrossingAllocFree(t *testing.T) {
	cl, n, execs := ringPair(msgring.DefaultRingSlots, false)
	const depth, bounces = 4, 10
	round := func() {
		for i := 0; i < depth; i++ {
			n.Inject(actor.Msg{Dst: 1, FlowID: bounces})
		}
		cl.Eng.Run()
	}
	round() // make the records, grow the queues
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Fatalf("steady-state ring crossings allocate %.2f per round of %d, want 0", got, depth*bounces)
	}
	if want := 102 * depth * (bounces + 1); execs[0]+execs[1] != want {
		t.Fatalf("%d handler executions, want %d", execs[0]+execs[1], want)
	}
	if got := n.freeRings.Len(); got == 0 || got > depth {
		t.Fatalf("%d ring handles pooled after rounds of %d in flight", got, depth)
	}
}

// TestHostPushRetryKeepsOrder: messages a full host→NIC ring turns away
// are offered again in the order they came, from one bound continuation,
// and every ring handle they used comes back. The twin of
// TestForwardRetryKeepsOrder.
func TestHostPushRetryKeepsOrder(t *testing.T) {
	cl := NewCluster(1)
	n := cl.AddNode(Config{Name: "srv", NIC: spec.LiquidIOII_CN2350(), RingSlots: 4, RingBatch: 1, DisableMigration: true})
	var got []actor.Kind
	sink := &actor.Actor{ID: 1, PinNIC: true, OnMessage: func(_ actor.Ctx, m actor.Msg) sim.Time {
		got = append(got, m.Kind)
		return sim.Microsecond
	}}
	if err := n.Register(sink, true, 1<<20); err != nil {
		t.Fatal(err)
	}
	// Seed the node's list with more handles than can be out at once: a
	// handle that is not returned leaves the list short.
	const handles = 16
	for i := 0; i < handles; i++ {
		n.putRing(&ringMsg{})
	}
	const msgs = 64
	for i := 0; i < msgs; i++ {
		n.hostToNIC(actor.Msg{Dst: 1, Kind: actor.Kind(i), FlowID: 7})
	}
	if n.hostRetry.Len() == 0 {
		t.Fatal("a 4-slot ring took 64 messages at once: nothing was retried")
	}
	cl.Eng.Run()
	if len(got) != msgs || n.hostRetry.Len() != 0 {
		t.Fatalf("%d of %d messages reached the NIC, %d still waiting", len(got), msgs, n.hostRetry.Len())
	}
	for i, k := range got {
		if k != actor.Kind(i) {
			t.Fatalf("message %d arrived in position %d: %v", k, i, got)
		}
	}
	if n.freeRings.Len() != handles {
		t.Fatalf("%d ring handles on the list after the run, want all %d", n.freeRings.Len(), handles)
	}
}

// TestRingRecordsPoisonedUnderChecker: with the invariant checker
// attached no ring handle is recycled, the run is the same run, and a
// message landing on a released handle is reported in either direction
// and not delivered.
func TestRingRecordsPoisonedUnderChecker(t *testing.T) {
	cl, n, execs := ringPair(16, true)
	chk := cl.Checker()
	n.Inject(actor.Msg{Dst: 1, FlowID: 10})
	cl.Eng.Run()
	if execs[0]+execs[1] != 11 {
		t.Fatalf("%d executions under the checker, want 11", execs[0]+execs[1])
	}
	if n.freeRings.Len() != 0 {
		t.Fatal("ring handles were recycled under the checker")
	}
	if err := chk.Err(); err != nil {
		t.Fatalf("clean run reported %v", err)
	}

	for _, push := range []func(msgring.Message){
		func(e msgring.Message) { n.Chan.NICPush(e); n.Chan.Flush() },
		func(e msgring.Message) { n.Chan.HostPush(e) },
	} {
		r := n.takeRing(actor.Msg{Dst: 1})
		e := r.slot()
		n.putRing(r)
		push(e) // the released handle crosses the ring
		cl.Eng.Run()
	}
	if execs[0]+execs[1] != 11 {
		t.Fatalf("%d executions, want 11: a stale handle must not deliver", execs[0]+execs[1])
	}
	vs := chk.Violations()
	if len(vs) != 2 || vs[0].Rule != "use-after-release" || vs[1].Rule != "use-after-release" {
		t.Fatalf("violations %v, want two use-after-release", vs)
	}
}
