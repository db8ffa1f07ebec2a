package core

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/spec"
)

// The wire path's two pooled records — arrivals (Deliver → runtime), on
// their node's list, and node→node wire records, on their partition's —
// counted exactly: free-list lengths and testing.AllocsPerRun, no wall
// clock. The flight tests of internal/netsim are the model.

// pingPong builds two offloaded nodes a and b on a cluster of parts
// partitions. Actor 1 on a and actor 2 on b bounce a message between
// them: a message with FlowID k > 0 is forwarded to the peer with k-1.
// hops reports the messages the two handlers have executed; each handler
// counts on its own, since the two may run on different window workers.
func pingPong(parts int) (cl *Cluster, a, b *Node, hops func() int) {
	cl = NewPartitionedCluster(1, parts)
	a = cl.AddNode(Config{Name: "a", NIC: spec.LiquidIOII_CN2350(), DisableMigration: true})
	b = cl.AddNode(Config{Name: "b", NIC: spec.LiquidIOII_CN2350(), DisableMigration: true})
	var counts [2]*int
	for i, n := range []*Node{a, b} {
		count := new(int)
		counts[i] = count
		id := actor.ID(i + 1)
		act := &actor.Actor{ID: id, PinNIC: true, OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			*count++
			if m.FlowID > 0 {
				ctx.Send(3-id, actor.Msg{FlowID: m.FlowID - 1})
			}
			return sim.Microsecond
		}}
		if err := n.Register(act, true, 1<<20); err != nil {
			panic(err)
		}
	}
	return cl, a, b, func() int { return *counts[0] + *counts[1] }
}

// wiresPooled counts the wire records on all of the cluster's partition
// lists.
func wiresPooled(cl *Cluster) int {
	total := 0
	for i := range cl.wires {
		total += cl.wires[i].Len()
	}
	return total
}

// wiresOn counts the wire records on node n's partition list.
func wiresOn(n *Node) int { return n.wires.Len() }

// TestWireAllocBudget: in steady state a node→node message — handler,
// effect, wire record, flight, arrival, gate, scheduler — allocates
// nothing at all, and the records it used are back on the free lists.
func TestWireAllocBudget(t *testing.T) {
	cl, a, b, hops := pingPong(1)
	const depth, bounces = 4, 10
	round := func() {
		for i := 0; i < depth; i++ {
			a.Inject(actor.Msg{Dst: 1, FlowID: bounces})
		}
		cl.Eng.Run()
	}
	round() // make the records, grow the queues
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Fatalf("steady-state ping-pong allocates %.2f per round of %d messages, want 0", got, depth*bounces)
	}
	if want := 102 * depth * (bounces + 1); hops() != want {
		t.Fatalf("%d handler executions, want %d", hops(), want)
	}
	if got := wiresPooled(cl); got != depth {
		t.Fatalf("%d wire records pooled after rounds of %d in flight: the partition must recycle one set", got, depth)
	}
	if got := a.freeArrivals.Len() + b.freeArrivals.Len(); got == 0 || got > 2*depth {
		t.Fatalf("%d arrival records pooled, want between 1 and %d", got, 2*depth)
	}
}

// TestDeliverAllocBudget: a client request through Deliver to the reply
// landing costs the runtime two allocations — the reply Packet and the
// boxed RespEnvelope the reply contract pins — on top of the caller's
// boxed Msg (its Packet never escapes a direct Deliver). The arrival
// record and the handler context are recycled.
func TestDeliverAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		nic  *spec.NICModel
	}{{"offloaded", spec.LiquidIOII_CN2350()}, {"baseline", nil}} {
		cl := NewCluster(1)
		n := cl.AddNode(Config{Name: "srv", NIC: tc.nic, DisableMigration: true})
		echo := &actor.Actor{ID: 1, OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			ctx.Reply(m)
			return sim.Microsecond
		}}
		if err := n.Register(echo, true, 1<<20); err != nil {
			t.Fatal(err)
		}
		replies := 0
		cl.Net.Attach("cli", 10, netsim.HandlerFunc(func(p *netsim.Packet) {
			env := p.Payload.(RespEnvelope)
			env.Fn(env.Msg)
		}))
		reply := func(actor.Msg) { replies++ }
		const burst = 8
		round := func() {
			for i := 0; i < burst; i++ {
				n.Deliver(&netsim.Packet{Src: "cli", Dst: "srv", Size: 256, FlowID: uint64(i),
					Payload: actor.Msg{Dst: 1, Origin: "cli", Reply: reply}})
			}
			cl.Eng.Run()
		}
		round()
		if got := testing.AllocsPerRun(100, round) / burst; got != 3 {
			t.Errorf("%s: Deliver→reply allocates %.2f per request, want 3 (the caller's Msg, the reply's Packet and envelope)", tc.name, got)
		}
		if replies != 102*burst {
			t.Errorf("%s: %d replies, want %d", tc.name, replies, 102*burst)
		}
		if got := n.freeArrivals.Len(); got == 0 || got > burst {
			t.Errorf("%s: %d arrival records pooled after bursts of %d", tc.name, got, burst)
		}
	}
}

// TestWireRecordCrashedReceiver: a crashed node still takes delivery of
// the record and releases it to its partition — it is the message that
// is dropped.
func TestWireRecordCrashedReceiver(t *testing.T) {
	cl, a, b, hops := pingPong(2)
	b.Fail()
	a.Eng().Defer(func() { a.Inject(actor.Msg{Dst: 1, FlowID: 5}) })
	cl.RunUntil(10 * sim.Millisecond)
	if hops() != 1 || b.DownDrops != 1 {
		t.Fatalf("hops=%d DownDrops=%d, want the first hop executed and the second dropped at b", hops(), b.DownDrops)
	}
	if wiresOn(a) != 0 || wiresOn(b) != 1 {
		t.Fatalf("wire records on a's partition %d, on b's %d, want 0 and 1: the crashed receiver releases the record", wiresOn(a), wiresOn(b))
	}
	if b.freeArrivals.Len() != 0 {
		t.Fatal("a crashed node admitted the message")
	}
	// Recovered, b sends with the record its partition was left.
	b.Recover()
	b.Eng().Defer(func() { b.Inject(actor.Msg{Dst: 2, FlowID: 1}) })
	cl.RunUntil(20 * sim.Millisecond)
	if hops() != 3 || wiresOn(b) != 0 || wiresOn(a) != 1 {
		t.Fatalf("after recovery: hops=%d, records on a's partition %d, on b's %d; want 3 hops and the one record back on a's",
			hops(), wiresOn(a), wiresOn(b))
	}
}

// TestWireRecordLostOnLink: a packet the network drops (injected loss, a
// severed pair) takes its record to the GC; nothing is released twice
// and traffic resumes with fresh records once the link heals.
func TestWireRecordLostOnLink(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cut, heal func(*Cluster)
		dropped   func(*Cluster) uint64
	}{
		{"loss", func(cl *Cluster) { cl.Net.LossRate = 1 }, func(cl *Cluster) { cl.Net.LossRate = 0 },
			func(cl *Cluster) uint64 { return cl.Net.Lost() }},
		{"blocked", func(cl *Cluster) { cl.Net.SetBlocked("a", "b", true) }, func(cl *Cluster) { cl.Net.SetBlocked("a", "b", false) },
			func(cl *Cluster) uint64 { return cl.Net.PartitionDrops() }},
	} {
		cl, a, _, hops := pingPong(1)
		a.Inject(actor.Msg{Dst: 1, FlowID: 2})
		cl.Eng.Run() // a→b→a: one record, back on the partition
		if wiresPooled(cl) != 1 {
			t.Fatalf("%s: %d records after a warm-up round trip, want 1", tc.name, wiresPooled(cl))
		}
		tc.cut(cl)
		a.Inject(actor.Msg{Dst: 1, FlowID: 2})
		cl.Eng.Run()
		if tc.dropped(cl) != 1 || hops() != 3+1 {
			t.Fatalf("%s: dropped=%d hops=%d, want the one packet dropped", tc.name, tc.dropped(cl), hops())
		}
		if wiresPooled(cl) != 0 {
			t.Fatalf("%s: %d records pooled: the dropped packet's record must be gone", tc.name, wiresPooled(cl))
		}
		tc.heal(cl)
		a.Inject(actor.Msg{Dst: 1, FlowID: 2})
		cl.Eng.Run()
		if hops() != 4+3 || wiresPooled(cl) != 1 {
			t.Fatalf("%s: after healing hops=%d records=%d, want 7 and 1", tc.name, hops(), wiresPooled(cl))
		}
	}
}

// TestWireAndArrivalListsBounded: a burst larger than the caps leaves at
// most the caps pinned. Only a one-way stream between partitions strands
// records, so that is the burst.
func TestWireAndArrivalListsBounded(t *testing.T) {
	cl, a, b, hops := pingPong(2)
	const burst = maxFreeWires + 100
	a.Eng().Defer(func() {
		for i := 0; i < burst; i++ {
			a.Inject(actor.Msg{Dst: 1, FlowID: 1}) // one hop a→b each, none back
		}
	})
	cl.RunUntil(100 * sim.Millisecond)
	if hops() != 2*burst {
		t.Fatalf("%d hops, want %d", hops(), 2*burst)
	}
	if wiresOn(a) != 0 || wiresOn(b) != maxFreeWires {
		t.Fatalf("wire records on a's partition %d, on b's %d after a one-way burst of %d, want 0 and the cap %d",
			wiresOn(a), wiresOn(b), burst, maxFreeWires)
	}
	if got := b.freeArrivals.Len(); got == 0 || got > maxFreeArrivals {
		t.Fatalf("%d arrival records pooled, cap %d", got, maxFreeArrivals)
	}
}

// TestOneWayPairRecyclesOnPartition: a one-way stream between two nodes
// of one partition allocates no wire record in steady state — the
// receiver releases each record to the list the sender takes from. A
// one-way stream between partitions still strands its records on the
// far side until that list is full, and keeps making new ones.
func TestOneWayPairRecyclesOnPartition(t *testing.T) {
	cl, a, _, hops := pingPong(1)
	const burst = 64
	round := func() {
		for i := 0; i < burst; i++ {
			a.Inject(actor.Msg{Dst: 1, FlowID: 1})
		}
		cl.Eng.Run()
	}
	round()
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Fatalf("a one-way burst of %d on one partition allocates %.2f: the sender's records must come back", burst, got)
	}
	if hops() != 2*burst*102 {
		t.Fatalf("%d hops, want %d", hops(), 2*burst*102)
	}
	if got := wiresPooled(cl); got == 0 || got > burst {
		t.Fatalf("%d wire records pooled after one-way bursts of %d", got, burst)
	}

	cl, a, b, _ := pingPong(2)
	for k := 1; k <= 3; k++ {
		a.Eng().Defer(func() {
			for i := 0; i < maxFreeWires/2; i++ {
				a.Inject(actor.Msg{Dst: 1, FlowID: 1})
			}
		})
		cl.RunUntil(sim.Time(k) * 100 * sim.Millisecond)
		if want := min(k*maxFreeWires/2, maxFreeWires); wiresOn(a) != 0 || wiresOn(b) != want {
			t.Fatalf("after %d one-way bursts across partitions: records on a's partition %d, on b's %d; want 0 and %d",
				k, wiresOn(a), wiresOn(b), want)
		}
	}
}

// TestWireRecordsChangePartitions: the record leaves the sender's list
// and lands on the receiver's, across engine partitions, at any worker
// count (which is what -race checks here). Two-way traffic keeps one
// fixed set of records; a one-way stream moves them all to the far side.
func TestWireRecordsChangePartitions(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cl, a, b, hops := pingPong(2)
		cl.SetPDESWorkers(workers)
		if a.Part == b.Part {
			t.Fatal("the two nodes share a partition")
		}
		const depth, bounces = 4, 500
		a.Eng().Defer(func() {
			for i := 0; i < depth; i++ {
				a.Inject(actor.Msg{Dst: 1, FlowID: bounces})
			}
		})
		cl.RunUntil(100 * sim.Millisecond)
		if hops() != depth*(bounces+1) {
			t.Fatalf("workers=%d: %d hops, want %d", workers, hops(), depth*(bounces+1))
		}
		if got := wiresPooled(cl); got != depth {
			t.Fatalf("workers=%d: %d records after %d crossings at depth %d: two-way traffic must recycle", workers, got, hops(), depth)
		}
		before := wiresOn(b)
		const oneWay = 50
		a.Eng().Defer(func() {
			for i := 0; i < oneWay; i++ {
				a.Inject(actor.Msg{Dst: 1, FlowID: 1})
			}
		})
		cl.RunUntil(200 * sim.Millisecond)
		if wiresOn(a) != 0 || wiresOn(b) != before+oneWay {
			t.Fatalf("workers=%d: one-way burst of %d left a's partition %d, b's %d (b's had %d)", workers, oneWay, wiresOn(a), wiresOn(b), before)
		}
	}
}

// TestReleasedRecordsPoisonedUnderChecker: with the invariant checker
// attached nothing is recycled, the run is the same run, and a second
// delivery of a wire record or a second firing of an arrival's
// continuation is reported where it lands.
func TestReleasedRecordsPoisonedUnderChecker(t *testing.T) {
	cl, a, b, hops := pingPong(1)
	chk := cl.AttachCheckers()[0]
	a.Inject(actor.Msg{Dst: 1, FlowID: 10})
	cl.Eng.Run()
	if hops() != 11 {
		t.Fatalf("%d hops under the checker, want 11", hops())
	}
	if wiresPooled(cl) != 0 || a.freeArrivals.Len()+b.freeArrivals.Len() != 0 {
		t.Fatal("records were recycled under the checker")
	}
	if err := chk.Err(); err != nil {
		t.Fatalf("clean run reported %v", err)
	}

	w := &wireMsg{m: actor.Msg{Dst: 2}}
	w.pkt = netsim.Packet{Src: "a", Dst: "b", Size: 64, Payload: w}
	b.Deliver(&w.pkt)
	b.Deliver(&w.pkt) // the same record again
	cl.Eng.Run()
	if hops() != 12 {
		t.Fatalf("%d hops, want 12: the stale delivery must not execute", hops())
	}
	ar := b.takeArrival()
	ar.msgs = append(ar.msgs, actor.Msg{Dst: 2, Via: actor.ViaWire})
	b.admit(ar, 0, 64)
	ar.toNICFn() // the gate's continuation fired twice
	cl.Eng.Run()
	if hops() != 13 {
		t.Fatalf("%d hops, want 13: the stale continuation must not execute", hops())
	}
	vs := chk.Violations()
	if len(vs) != 2 || vs[0].Rule != "use-after-release" || vs[1].Rule != "use-after-release" {
		t.Fatalf("violations %v, want two use-after-release", vs)
	}
}

// TestForwardRetryKeepsOrder: messages a full NIC→host ring turns away
// are offered again in the order they came, from one bound continuation.
func TestForwardRetryKeepsOrder(t *testing.T) {
	cl := NewCluster(1)
	n := cl.AddNode(Config{Name: "srv", NIC: spec.LiquidIOII_CN2350(), RingSlots: 4, RingBatch: 1, DisableMigration: true})
	var got []uint64
	sink := &actor.Actor{ID: 1, PinHost: true, OnMessage: func(_ actor.Ctx, m actor.Msg) sim.Time {
		got = append(got, m.FlowID)
		return sim.Microsecond
	}}
	if err := n.Register(sink, false, 1<<20); err != nil {
		t.Fatal(err)
	}
	const msgs = 64
	for i := 0; i < msgs; i++ {
		n.forwardToHost(actor.Msg{Dst: 1, FlowID: uint64(i)})
	}
	if n.fwdRetry.Len() == 0 {
		t.Fatal("a 4-slot ring took 64 messages at once: nothing was retried")
	}
	cl.Eng.Run()
	if len(got) != msgs || n.fwdRetry.Len() != 0 {
		t.Fatalf("%d of %d messages reached the host, %d still waiting", len(got), msgs, n.fwdRetry.Len())
	}
	for i, f := range got {
		if f != uint64(i) {
			t.Fatalf("message %d arrived in position %d: %v", f, i, got)
		}
	}
}
