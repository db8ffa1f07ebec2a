package netsim

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/sim"
)

// Allocation budget and pool safety of the per-packet flight records.
// Everything is counted exactly (testing.AllocsPerRun, free-list
// lengths); nothing here reads a wall clock.

// pooled sums the free-list lengths: once traffic has drained, every
// record ever made (up to the cap) sits in exactly one pool.
func pooled(n *Network) int {
	total := 0
	for i := range n.pools {
		total += n.pools[i].Len()
	}
	return total
}

// TestSendAllocBudget: in steady state a same-partition send→deliver
// allocates nothing: the flight is recycled and carries the packet by
// value, so the caller's Packet stays on its stack.
func TestSendAllocBudget(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng)
	net.Attach("a", 10, nil)
	net.Attach("b", 10, HandlerFunc(func(*Packet) {}))
	const burst = 8
	round := func() {
		for i := 0; i < burst; i++ {
			net.Send(&Packet{Src: "a", Dst: "b", Size: 256, FlowID: uint64(i)})
		}
		eng.Run()
	}
	round() // make the burst's records and grow the station queues
	if perPacket := testing.AllocsPerRun(200, round) / burst; perPacket != 0 {
		t.Fatalf("steady-state send→deliver allocates %.2f/packet, want 0", perPacket)
	}
	if got := pooled(net); got != burst {
		t.Fatalf("%d records pooled after bursts of %d: balanced traffic must reuse them", got, burst)
	}
}

// TestFlightPoolBounded: a burst larger than the cap leaves at most the
// cap pinned on the free list.
func TestFlightPoolBounded(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng)
	net.Attach("a", 10, nil)
	net.Attach("b", 10, HandlerFunc(func(*Packet) {}))
	const burst = maxFreeFlights + 500
	for i := 0; i < burst; i++ {
		net.Send(&Packet{Src: "a", Dst: "b", Size: 64})
	}
	eng.Run()
	if net.Delivered() != burst {
		t.Fatalf("delivered %d, want %d", net.Delivered(), burst)
	}
	if got := pooled(net); got != maxFreeFlights {
		t.Fatalf("free list holds %d records after a burst of %d, want the cap %d", got, burst, maxFreeFlights)
	}
}

// TestRetainedPacketStaysIntact: Send copies the packet. A caller that
// re-sends one Packet variable, changing its fields after every Send,
// has every delivery carry the fields it had at its own send, and Send
// writes nothing into the caller's packet.
func TestRetainedPacketStaysIntact(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng)
	var got []Packet
	net.Attach("a", 10, nil)
	net.Attach("b", 10, HandlerFunc(func(p *Packet) { got = append(got, *p) }))
	const sends = 10000
	pkt := Packet{Src: "a", Dst: "b"}
	for i := 0; i < sends; i++ {
		pkt.Size, pkt.FlowID, pkt.Payload = 64+i%1000, uint64(i), i
		sent := pkt
		net.Send(&pkt)
		if pkt != sent {
			t.Fatalf("send %d: Send rewrote the caller's packet: %+v, want %+v", i, pkt, sent)
		}
		pkt.Size, pkt.FlowID, pkt.Payload = -1, 0, "changed after Send"
		if i%8 == 7 {
			eng.Run()
		}
	}
	eng.Run()
	if len(got) != sends {
		t.Fatalf("delivered %d packets, want %d", len(got), sends)
	}
	for i, p := range got {
		want := Packet{Src: "a", Dst: "b", Size: 64 + i%1000, FlowID: uint64(i), Payload: i}
		if p != want {
			t.Fatalf("delivery %d carried %+v, want the fields at its send %+v", i, p, want)
		}
	}
}

// TestHandlerSendKeepsItsPacket: the packet a handler is given stays its
// own for the whole call, even after the handler has sent one of its own
// — the flight that carried it is released only once Deliver returns.
func TestHandlerSendKeepsItsPacket(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng)
	var seen []Packet
	net.Attach("a", 10, HandlerFunc(func(*Packet) {}))
	net.Attach("b", 10, HandlerFunc(func(p *Packet) {
		net.Send(&Packet{Src: "b", Dst: "a", Size: 64, FlowID: p.FlowID + 1000, Payload: "echo"})
		seen = append(seen, *p)
	}))
	for i := 0; i < 3; i++ { // the second round onward recycles records
		net.Send(&Packet{Src: "a", Dst: "b", Size: 128, FlowID: uint64(i), Payload: "request"})
		eng.Run()
	}
	for i, p := range seen {
		if want := (Packet{Src: "a", Dst: "b", Size: 128, FlowID: uint64(i), Payload: "request"}); p != want {
			t.Fatalf("delivery %d: after its own Send the handler read %+v, want %+v", i, p, want)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("%d deliveries at b, want 3", len(seen))
	}
}

// TestDeliveredFlightPoisonedUnderChecker: with the invariant checker
// attached a delivered flight is never reused, and its packet is
// overwritten once the handler returns, so a handler that kept the
// pointer reads the poison packet rather than a later packet's fields.
func TestDeliveredFlightPoisonedUnderChecker(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng)
	chk := invariant.New(eng)
	net.Observe(nil, nil, []*invariant.Checker{chk})
	var kept []*Packet
	net.Attach("a", 10, nil)
	net.Attach("b", 10, HandlerFunc(func(p *Packet) {
		if p.Src != "a" || p.FlowID != uint64(len(kept)) {
			t.Errorf("handler was given %+v during Deliver", *p)
		}
		kept = append(kept, p)
	}))
	const sends = 16
	for i := 0; i < sends; i++ {
		net.Send(&Packet{Src: "a", Dst: "b", Size: 64, FlowID: uint64(i), Payload: i})
		if i%4 == 3 {
			eng.Run()
		}
	}
	eng.Run()
	if len(kept) != sends {
		t.Fatalf("delivered %d packets, want %d", len(kept), sends)
	}
	for i, p := range kept {
		if *p != poisonPacket {
			t.Fatalf("kept pointer %d reads %+v after Deliver returned, want the poison packet", i, *p)
		}
		for _, q := range kept[:i] {
			if p == q {
				t.Fatal("a delivered flight was reused under the checker")
			}
		}
	}
	if got := pooled(net); got != 0 {
		t.Fatalf("%d flights pooled under the checker, want 0", got)
	}
	if vs := chk.Violations(); len(vs) != 0 {
		t.Fatalf("clean run reported %v", vs)
	}
}

// TestCrossPartitionFlightsChangePools: a record is taken from the
// source partition's pool and returned to the destination's. Two-way
// traffic therefore keeps recycling one fixed set of records — at any
// worker count, which is what -race checks here — while a one-way stream
// moves every record to the far side and makes a new one per packet.
func TestCrossPartitionFlightsChangePools(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := sim.NewGroup(1, 2)
		net := NewPartitioned(g)
		const rounds = 2000
		echoed := 0
		// b echoes every packet back; a re-sends until the budget is spent.
		net.AttachOn("a", 10, HandlerFunc(func(p *Packet) {
			if echoed++; echoed < rounds {
				net.Send(&Packet{Src: "a", Dst: "b", Size: 256})
			}
		}), 0)
		net.AttachOn("b", 10, HandlerFunc(func(p *Packet) {
			net.Send(&Packet{Src: "b", Dst: "a", Size: 256})
		}), 1)
		const depth = 4
		g.Engine(0).Defer(func() {
			for i := 0; i < depth; i++ {
				net.Send(&Packet{Src: "a", Dst: "b", Size: 256})
			}
		})
		g.RunUntil(sim.Second, workers)
		if echoed < rounds {
			t.Fatalf("workers=%d: %d echoes, want ≥ %d", workers, echoed, rounds)
		}
		// Each of the depth ping-pongs needs one record per direction at
		// most; thousands of crossings later that is still all there is.
		if got := pooled(net); got > 2*depth {
			t.Fatalf("workers=%d: %d records after %d echoes at depth %d: two-way traffic must recycle", workers, got, echoed, depth)
		}

		// One way only: every record ends up on partition 1.
		before := net.pools[1].Len()
		net.setHandler("b", HandlerFunc(func(*Packet) {}))
		const oneWay = 100
		g.Engine(0).Defer(func() {
			for i := 0; i < oneWay; i++ {
				net.Send(&Packet{Src: "a", Dst: "b", Size: 64})
			}
		})
		g.RunUntil(2*sim.Second, workers)
		if got := net.pools[0].Len(); got != 0 {
			t.Fatalf("workers=%d: source pool holds %d records after a one-way burst, want 0", workers, got)
		}
		if got := net.pools[1].Len(); got < before+oneWay-2*depth {
			t.Fatalf("workers=%d: destination pool grew %d → %d on a one-way burst of %d", workers, before, got, oneWay)
		}
	}
}
