package netsim

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/sim"
)

// buildPair attaches two nodes on separate partitions with a sink
// handler and returns the group, network, and delivery log.
func buildPair(seed uint64) (*sim.Group, *Network, *[]sim.Time) {
	g := sim.NewGroup(seed, 2)
	n := NewPartitioned(g)
	var arrivals []sim.Time
	n.AttachOn("a", 10, nil, 0)
	n.AttachOn("b", 10, HandlerFunc(func(pkt *Packet) {
		arrivals = append(arrivals, g.Engine(1).Now())
	}), 1)
	return g, n, &arrivals
}

// TestCrossPartitionDeliveryLatency: a packet crossing partitions must
// arrive after exactly the same unloaded latency as on one engine.
func TestCrossPartitionDeliveryLatency(t *testing.T) {
	g, n, arrivals := buildPair(1)
	want := oneWayBaseLatency(n, "a", "b", 256)
	g.Engine(0).Defer(func() {
		n.Send(&Packet{Src: "a", Dst: "b", Size: 256})
	})
	g.RunUntil(sim.Millisecond, 2)
	if len(*arrivals) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(*arrivals))
	}
	if got := (*arrivals)[0]; got != want {
		t.Fatalf("cross-partition latency %v, want %v", got, want)
	}
	if n.Delivered() != 1 {
		t.Fatalf("Delivered() = %d, want 1", n.Delivered())
	}
	if g.Crossed() != 1 {
		t.Fatalf("Crossed() = %d, want 1 handoff", g.Crossed())
	}
}

// TestCrossPartitionLedgersBalance: per-partition checkers must agree
// at quiescence via the handoff counters.
func TestCrossPartitionLedgersBalance(t *testing.T) {
	g, n, _ := buildPair(2)
	chks := []*invariant.Checker{invariant.New(g.Engine(0)), invariant.New(g.Engine(1))}
	n.EnableInvariantsAt(0, chks[0])
	n.EnableInvariantsAt(1, chks[1])
	g.Engine(0).Defer(func() {
		for i := 0; i < 50; i++ {
			n.Send(&Packet{Src: "a", Dst: "b", Size: 128})
		}
	})
	g.Run(2)
	for i, chk := range chks {
		chk.Finish()
		if err := chk.Err(); err != nil {
			t.Fatalf("partition %d ledger: %v", i, err)
		}
	}
	if n.Delivered() != 50 {
		t.Fatalf("Delivered() = %d, want 50", n.Delivered())
	}
}

// TestPartitionedMatchesSerialWindows: the same partitioned topology
// must deliver identically with 1 and 2 workers (bidirectional bursty
// traffic, so windows genuinely interleave).
func TestPartitionedMatchesSerialWindows(t *testing.T) {
	run := func(workers int) [2][]sim.Time {
		g := sim.NewGroup(7, 2)
		n := NewPartitioned(g)
		var logs [2][]sim.Time // one per partition: no cross-goroutine sharing
		mk := func(self string, part int, eng *sim.Engine, peer string) HandlerFunc {
			return func(pkt *Packet) {
				logs[part] = append(logs[part], eng.Now())
				if len(logs[part]) < 100 { // ping-pong chain
					n.Send(&Packet{Src: self, Dst: peer, Size: 64 + len(logs[part])%512})
				}
			}
		}
		n.AttachOn("a", 10, mk("a", 0, g.Engine(0), "b"), 0)
		n.AttachOn("b", 25, mk("b", 1, g.Engine(1), "a"), 1)
		g.Engine(0).Defer(func() {
			for i := 0; i < 4; i++ {
				n.Send(&Packet{Src: "a", Dst: "b", Size: 64})
			}
		})
		g.Run(workers)
		return logs
	}
	serial, parallel := run(1), run(2)
	for p := 0; p < 2; p++ {
		if len(serial[p]) != len(parallel[p]) || len(serial[p]) == 0 {
			t.Fatalf("partition %d delivery counts differ: %d vs %d", p, len(serial[p]), len(parallel[p]))
		}
		for i := range serial[p] {
			if serial[p][i] != parallel[p][i] {
				t.Fatalf("partition %d delivery %d at %v (serial) vs %v (parallel)",
					p, i, serial[p][i], parallel[p][i])
			}
		}
	}
}
