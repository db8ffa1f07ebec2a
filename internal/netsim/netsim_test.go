package netsim

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
)

// twoNodeNet attaches a and b; b's handler keeps a copy of every packet
// it is given.
func twoNodeNet(t *testing.T, gbps float64) (*sim.Engine, *Network, *[]Packet) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := New(eng)
	var got []Packet
	net.Attach("a", gbps, nil)
	net.Attach("b", gbps, HandlerFunc(func(p *Packet) { got = append(got, *p) }))
	return eng, net, &got
}

func TestDeliveryLatencyUnloaded(t *testing.T) {
	eng, net, got := twoNodeNet(t, 10)
	net.Send(&Packet{Src: "a", Dst: "b", Size: 1500})
	eng.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(*got))
	}
	want := oneWayBaseLatency(net, "a", "b", 1500)
	if eng.Now() != want {
		t.Fatalf("delivery at %v, want %v", eng.Now(), want)
	}
	// Sanity: 1500B at 10GbE serializes in ≈1.2µs per hop; total should
	// be in single-digit microseconds.
	if want < 2*sim.Microsecond || want > 5*sim.Microsecond {
		t.Fatalf("base latency %v implausible", want)
	}
}

func TestSerializationQueueing(t *testing.T) {
	eng, net, got := twoNodeNet(t, 10)
	// Two back-to-back packets: the second waits for the first's wire time
	// on the shared uplink.
	net.Send(&Packet{Src: "a", Dst: "b", Size: 1500})
	net.Send(&Packet{Src: "a", Dst: "b", Size: 1500})
	eng.Run()
	if len(*got) != 2 {
		t.Fatalf("delivered %d, want 2", len(*got))
	}
	gap := eng.Now() - oneWayBaseLatency(net, "a", "b", 1500)
	wire := spec.SerializationDelay(10, 1500)
	if gap != wire {
		t.Fatalf("second packet delayed by %v, want one wire time %v", gap, wire)
	}
}

func TestLineRateThroughput(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng)
	delivered := 0
	net.Attach("src", 10, nil)
	net.Attach("dst", 10, HandlerFunc(func(p *Packet) { delivered++ }))
	// Offer 2x line rate for 10ms of virtual time; deliveries must be
	// capped at line rate by the serializer.
	const size = 512
	line := spec.LineRatePPS(10, size)
	interval := sim.Time(0.5e9 / line)
	for at := sim.Time(0); at < 10*sim.Millisecond; at += interval {
		at := at
		eng.At(at, func() { net.Send(&Packet{Src: "src", Dst: "dst", Size: size}) })
	}
	eng.Run()
	elapsed := eng.Now().Seconds()
	gbps := spec.GoodputGbps(float64(delivered)/elapsed, size)
	if gbps > 10.01 {
		t.Fatalf("goodput %v exceeds link speed", gbps)
	}
	if gbps < 9.0 {
		t.Fatalf("goodput %v too far below line rate", gbps)
	}
}

func TestUnknownNodesDrop(t *testing.T) {
	eng, net, got := twoNodeNet(t, 10)
	net.Send(&Packet{Src: "a", Dst: "ghost", Size: 64})
	net.Send(&Packet{Src: "ghost", Dst: "b", Size: 64})
	eng.Run()
	if len(*got) != 0 {
		t.Fatal("packets to/from unknown nodes must not deliver")
	}
	if net.Drops() != 2 {
		t.Fatalf("Drops = %d, want 2", net.Drops())
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng)
	net.Attach("a", 10, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach did not panic")
		}
	}()
	net.Attach("a", 10, nil)
}

// TestTracedObserveAfterAttachPanics: ports register their link lanes
// as they attach, so a tracer attached after a port would leave that
// port untraced; checking alone is per partition and may come later.
func TestTracedObserveAfterAttachPanics(t *testing.T) {
	net := New(sim.NewEngine(1))
	net.Attach("a", 10, nil)
	net.Observe(nil, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Observe with a tracer after Attach did not panic")
		}
	}()
	tr := obs.NewTracer()
	net.Observe(tr, func(node string) obs.GroupID { return tr.Group(node) }, nil)
}

func TestMixedLinkSpeeds(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng)
	var at sim.Time
	net.Attach("fast", 25, nil)
	net.Attach("slow", 10, HandlerFunc(func(p *Packet) { at = eng.Now() }))
	net.Send(&Packet{Src: "fast", Dst: "slow", Size: 1024})
	eng.Run()
	want := oneWayBaseLatency(net, "fast", "slow", 1024)
	if at != want {
		t.Fatalf("arrival %v, want %v", at, want)
	}
	// The slow downlink dominates serialization.
	fastWire := spec.SerializationDelay(25, 1024)
	slowWire := spec.SerializationDelay(10, 1024)
	if slowWire <= fastWire {
		t.Fatal("expected slower downlink serialization")
	}
}

func TestFlowIDAndPayloadPreserved(t *testing.T) {
	eng, net, got := twoNodeNet(t, 10)
	net.Send(&Packet{Src: "a", Dst: "b", Size: 128, FlowID: 42, Payload: "hello"})
	eng.Run()
	p := (*got)[0]
	if p.FlowID != 42 || p.Payload != "hello" {
		t.Fatalf("packet fields not preserved: %+v", p)
	}
}

func TestLossInjection(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng)
	delivered := 0
	net.Attach("a", 10, nil)
	net.Attach("b", 10, HandlerFunc(func(p *Packet) { delivered++ }))
	net.LossRate = 0.5
	for i := 0; i < 400; i++ {
		net.Send(&Packet{Src: "a", Dst: "b", Size: 64})
	}
	eng.Run()
	if net.Lost() == 0 || delivered == 0 {
		t.Fatalf("loss injection degenerate: lost=%d delivered=%d", net.Lost(), delivered)
	}
	if net.Lost()+uint64(delivered) != 400 {
		t.Fatalf("accounting: %d + %d != 400", net.Lost(), delivered)
	}
	// Roughly half lost.
	if net.Lost() < 120 || net.Lost() > 280 {
		t.Fatalf("lost %d of 400 at 50%% rate", net.Lost())
	}
}

// oneWayBaseLatency is the unloaded one-way latency for a frame size
// between two nodes, for analytical checks.
func oneWayBaseLatency(n *Network, src, dst string, size int) sim.Time {
	s, d := n.nodes[src], n.nodes[dst]
	return spec.SerializationDelay(s.up.gbps, size) + s.up.propagation +
		switchLatency +
		spec.SerializationDelay(d.down.gbps, size) + d.down.propagation
}
