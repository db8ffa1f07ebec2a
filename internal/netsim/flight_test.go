package netsim

import (
	"testing"

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
// allocates nothing but the caller's own Packet.
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
	perPacket := testing.AllocsPerRun(200, round) / burst
	if perPacket > 1 {
		t.Fatalf("steady-state send→deliver allocates %.2f/packet, want ≤ 1 (the caller's Packet)", perPacket)
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

// TestRetainedPacketStaysIntact: the Packet is caller-owned — a handler
// that keeps the pointer it was given still sees the same packet, with
// its fields intact, after the network has recycled the private record
// that carried it ten thousand times over.
func TestRetainedPacketStaysIntact(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng)
	var kept *Packet
	net.Attach("a", 10, nil)
	net.Attach("b", 10, HandlerFunc(func(p *Packet) {
		if kept == nil {
			kept = p
		}
	}))
	first := &Packet{Src: "a", Dst: "b", Size: 777, FlowID: 42, Payload: "first"}
	net.Send(first)
	eng.Run()
	sentAt := first.SentAt
	for i := 0; i < 10000; i++ {
		net.Send(&Packet{Src: "a", Dst: "b", Size: 64, FlowID: uint64(1000 + i), Payload: i})
		if i%8 == 7 {
			eng.Run()
		}
	}
	eng.Run()
	if kept != first {
		t.Fatal("handler was given a different pointer than the one sent")
	}
	want := Packet{Src: "a", Dst: "b", Size: 777, FlowID: 42, Payload: "first", SentAt: sentAt}
	if *kept != want {
		t.Fatalf("retained packet changed under the handler: %+v, want %+v", *kept, want)
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
