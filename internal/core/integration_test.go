package core_test

import (
	"fmt"
	"testing"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// TestOffPathNICEndToEnd runs the echo flow on a Stingray: no hardware
// traffic manager, so the scheduler uses the software shuffle layer
// with work stealing (§3.2.6).
func TestOffPathNICEndToEnd(t *testing.T) {
	cl := core.NewCluster(5)
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.Stingray_PS225()})
	n.Register(&actor.Actor{
		ID: 1,
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			ctx.Reply(m)
			return 2 * sim.Microsecond
		},
	}, true, 0)
	client := workload.NewClient(cl, "cli", 25)
	// Two flows only: the shuffle layer must steal to balance.
	for i := 0; i < 200; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*2*sim.Microsecond, func() {
			client.Send(workload.Request{Node: "srv", Dst: 1, Size: 512, FlowID: uint64(i % 2)})
		})
	}
	cl.Eng.Run()
	if client.Received != 200 {
		t.Fatalf("received %d of 200 via shuffle layer", client.Received)
	}
}

// TestBlueFieldNode exercises the RDMA-profile card: rings ride the
// higher-latency verb path, and the wimpy 0.8GHz cores charge more per
// handler than the Stingray.
func TestBlueFieldNode(t *testing.T) {
	run := func(model *spec.NICModel) float64 {
		cl := core.NewCluster(6)
		n := cl.AddNode(core.Config{Name: "srv", NIC: model})
		n.Register(&actor.Actor{
			ID: 1,
			OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
				ctx.Reply(m)
				return 10 * sim.Microsecond
			},
		}, true, 0)
		client := workload.NewClient(cl, "cli", 25)
		for i := 0; i < 50; i++ {
			i := i
			cl.Eng.At(sim.Time(i)*50*sim.Microsecond, func() {
				client.Send(workload.Request{Node: "srv", Dst: 1, Size: 512, FlowID: uint64(i)})
			})
		}
		cl.Eng.Run()
		if client.Received != 50 {
			t.Fatalf("%s: received %d of 50", model.Name, client.Received)
		}
		return client.Lat.Percentile(50)
	}
	bf := run(spec.BlueField_1M332A())
	sr := run(spec.Stingray_PS225())
	if bf <= sr {
		t.Fatalf("0.8GHz BlueField p50 %.2fµs should exceed 3GHz Stingray %.2fµs", bf, sr)
	}
}

// TestHostToNICRingDirection drives the host→NIC direction hard: a
// host-pinned producer fans messages to a NIC-resident consumer.
func TestHostToNICRingDirection(t *testing.T) {
	cl := core.NewCluster(9)
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350()})
	got := 0
	nicSink := &actor.Actor{
		ID: 3, Name: "nic-sink", PinNIC: true,
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			got++
			return sim.Microsecond
		},
	}
	producer := &actor.Actor{
		ID: 4, Name: "producer", PinHost: true,
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			for k := 0; k < 10; k++ {
				ctx.Send(3, actor.Msg{Kind: 7, Data: []byte{byte(k)}})
			}
			return 2 * sim.Microsecond
		},
	}
	n.Register(nicSink, true, 0)
	n.Register(producer, false, 0)
	client := workload.NewClient(cl, "cli", 10)
	for i := 0; i < 20; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*30*sim.Microsecond, func() {
			client.Send(workload.Request{Node: "srv", Dst: 4, Size: 128, FlowID: uint64(i)})
		})
	}
	cl.Eng.Run()
	if got != 200 {
		t.Fatalf("NIC sink saw %d of 200 host-originated messages", got)
	}
}

// TestPinnedPlacementRespected verifies PinHost/PinNIC override the
// requested placement at registration.
func TestPinnedPlacementRespected(t *testing.T) {
	cl := core.NewCluster(10)
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350()})
	h := &actor.Actor{ID: 1, PinHost: true, OnMessage: func(actor.Ctx, actor.Msg) sim.Time { return 0 }}
	nn := &actor.Actor{ID: 2, PinNIC: true, OnMessage: func(actor.Ctx, actor.Msg) sim.Time { return 0 }}
	n.Register(h, true, 0)   // asked NIC, pinned host
	n.Register(nn, false, 0) // asked host, pinned NIC
	if ref, _ := cl.Table.Lookup(1); ref.OnNIC {
		t.Fatal("PinHost actor landed on the NIC")
	}
	if ref, _ := cl.Table.Lookup(2); !ref.OnNIC {
		t.Fatal("PinNIC actor landed on the host")
	}
}

// TestBaselineNodeForcesHostPlacement verifies nodes without a SmartNIC
// place everything on the host regardless of the request.
func TestBaselineNodeForcesHostPlacement(t *testing.T) {
	cl := core.NewCluster(11)
	n := cl.AddNode(core.Config{Name: "srv"})
	a := &actor.Actor{ID: 1, OnMessage: func(actor.Ctx, actor.Msg) sim.Time { return 0 }}
	if err := n.Register(a, true, 0); err != nil {
		t.Fatal(err)
	}
	if ref, _ := cl.Table.Lookup(1); ref.OnNIC {
		t.Fatal("baseline node claims NIC placement")
	}
}

// TestManyActorsManyNodes is a soak: 4 nodes × 8 actors with cross-node
// chatter; everything must drain with no drops.
func TestManyActorsManyNodes(t *testing.T) {
	cl := core.NewCluster(12)
	const nodes = 4
	const perNode = 8
	for ni := 0; ni < nodes; ni++ {
		n := cl.AddNode(core.Config{Name: fmt.Sprintf("n%d", ni), NIC: spec.LiquidIOII_CN2350()})
		for ai := 0; ai < perNode; ai++ {
			id := actor.ID(ni*perNode + ai + 1)
			peer := actor.ID((int(id) % (nodes * perNode)) + 1)
			n.Register(&actor.Actor{
				ID: id,
				OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
					if m.Kind == 1 && len(m.Data) > 0 && m.Data[0] > 0 {
						ctx.Send(peer, actor.Msg{Kind: 1, Data: []byte{m.Data[0] - 1}})
					}
					if m.Reply != nil {
						ctx.Reply(m)
					}
					return sim.Microsecond
				},
			}, ai%2 == 0, 0)
		}
	}
	client := workload.NewClient(cl, "cli", 10)
	for i := 0; i < 64; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*20*sim.Microsecond, func() {
			client.Send(workload.Request{
				Node: fmt.Sprintf("n%d", i%nodes), Dst: actor.ID(i%(nodes*perNode) + 1),
				Kind: 1, Data: []byte{8}, Size: 256, FlowID: uint64(i),
			})
		})
	}
	cl.Eng.Run()
	if client.Received != 64 {
		t.Fatalf("received %d of 64", client.Received)
	}
	var drops uint64
	for ni := 0; ni < nodes; ni++ {
		drops += cl.Node(fmt.Sprintf("n%d", ni)).Dropped
	}
	if drops != 0 {
		t.Fatalf("%d messages dropped in the mesh", drops)
	}
}

// TestDeterminism: identical seeds give identical traces; different
// seeds differ.
func TestDeterminism(t *testing.T) {
	run := func(seed uint64) (uint64, float64) {
		cl := core.NewCluster(seed)
		n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350()})
		n.Register(&actor.Actor{
			ID: 1,
			OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
				ctx.Reply(m)
				return sim.Time(1000 + cl.Eng.Rand().Intn(5000))
			},
		}, true, 0)
		client := workload.NewClient(cl, "cli", 10)
		client.OpenLoop(300000, 3*sim.Millisecond, func(i uint64) workload.Request {
			return workload.Request{Node: "srv", Dst: 1, Size: 256, FlowID: i}
		})
		cl.Eng.Run()
		return client.Received, client.Lat.Percentile(99)
	}
	r1, p1 := run(77)
	r2, p2 := run(77)
	if r1 != r2 || p1 != p2 {
		t.Fatalf("same seed diverged: %d/%f vs %d/%f", r1, p1, r2, p2)
	}
	r3, p3 := run(78)
	if r1 == r3 && p1 == p3 {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}
