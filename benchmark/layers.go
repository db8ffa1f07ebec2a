package main

import (
	"runtime"
	"time"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/dmo"
	"repro/internal/hostsim"
	"repro/internal/msgring"
	"repro/internal/netsim"
	"repro/internal/nicsim"
	"repro/internal/obs"
	"repro/internal/pcie"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// Layer drivers: each layer's public functions, timed in isolation from
// this file. They are workload-independent host-time costs; the cost
// model (share.*) multiplies them by the traced pass's per-layer counts.
//
// A driver reaches steady state with driverWarmOps operations, then runs
// driverRounds rounds of driverOps and reports the median round — 250 k
// timed operations per driver.
const (
	driverWarmOps = 10000
	driverOps     = 50000
	driverRounds  = 5
	// driverBatch operations are issued before the engine runs them, so a
	// layer's queues see a short burst rather than a single item.
	driverBatch = 8
)

// driver is one layer's isolated benchmark. make builds the layer's
// state and returns run, which performs n operations to completion, and
// events, which (when non-nil) reads the engine's executed-event count.
type driver struct {
	name string
	make func() (run func(n int), events func() uint64)
	// eventsPerOp says make returns an events reader, so the driver also
	// reports <name>.events_per_op.
	eventsPerOp bool
}

type driverResult struct {
	nsPerOp     float64
	allocsPerOp float64
	eventsPerOp float64 // 0 when the driver does not report events
}

// runDriver measures one driver. scale divides the operation counts;
// only the tests use scale > 1.
func runDriver(d driver, scale int) driverResult {
	run, events := d.make()
	ops := driverOps / scale
	run(driverWarmOps / scale)
	ns := make([]float64, driverRounds)
	allocs := make([]float64, driverRounds)
	evs := make([]float64, driverRounds)
	var m0, m1 runtime.MemStats
	for r := range ns {
		runtime.GC()
		var e0 uint64
		if events != nil {
			e0 = events()
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		run(ops)
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns[r] = float64(dt.Nanoseconds()) / float64(ops)
		allocs[r] = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
		if events != nil {
			evs[r] = float64(events()-e0) / float64(ops)
		}
	}
	return driverResult{summarize(ns).Median, summarize(allocs).Median, summarize(evs).Median}
}

// batched issues n operations in bursts of driverBatch, running the
// engine dry after each burst.
func batched(n int, issue func(i int), drain func()) {
	for i := 0; i < n; {
		for k := 0; k < driverBatch && i < n; k++ {
			issue(i)
			i++
		}
		drain()
	}
}

const driverSeed = 1

var drivers = []driver{
	{name: "sim.engine", make: func() (func(int), func() uint64) {
		// 1 k pending timers, each re-arming itself after a delay from a
		// small LCG: one operation is one fire plus one After.
		eng := sim.NewEngine(driverSeed)
		lcg := uint32(1)
		var tick func()
		tick = func() {
			lcg = lcg*1664525 + 1013904223
			eng.After(sim.Time(100+lcg>>22), tick)
		}
		for i := 0; i < 1000; i++ {
			eng.After(sim.Time(i), tick)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				eng.Step()
			}
		}, nil
	}},
	{name: "sim.station", make: func() (func(int), func() uint64) {
		eng := sim.NewEngine(driverSeed)
		st := sim.NewStation(eng, 1)
		done := func(_, _, _ sim.Time) {}
		return func(n int) {
			batched(n, func(int) { st.Submit(&sim.Job{Service: 100, Done: done}) }, eng.Run)
		}, nil
	}},
	{name: "netsim.send", make: func() (func(int), func() uint64) {
		eng := sim.NewEngine(driverSeed)
		net := netsim.New(eng)
		net.Attach("a", 10, nil)
		net.Attach("b", 10, netsim.HandlerFunc(func(*netsim.Packet) {}))
		return func(n int) {
			batched(n, func(i int) {
				net.Send(&netsim.Packet{Src: "a", Dst: "b", Size: meshReqSize, FlowID: uint64(i)})
			}, eng.Run)
		}, eng.Executed
	}, eventsPerOp: true},
	{name: "netsim.xpart", make: func() (func(int), func() uint64) {
		g := sim.NewGroup(driverSeed, 2)
		net := netsim.NewPartitioned(g)
		net.AttachOn("a", 10, nil, 0)
		net.AttachOn("b", 10, netsim.HandlerFunc(func(*netsim.Packet) {}), 1)
		return func(n int) {
			batched(n, func(i int) {
				net.Send(&netsim.Packet{Src: "a", Dst: "b", Size: meshReqSize, FlowID: uint64(i)})
			}, func() { g.RunUntil(g.Engine(0).Now()+xpartDrain, 1) })
		}, g.ExecutedEvents
	}, eventsPerOp: true},
	{name: "nicsim.gate", make: func() (func(int), func() uint64) {
		// The CN2350 every workload deploys has no PPS cap: its gate is
		// the transparent path.
		gate := nicsim.NewTrafficGate(sim.NewEngine(driverSeed), spec.LiquidIOII_CN2350())
		deliver := func() {}
		return func(n int) {
			for i := 0; i < n; i++ {
				gate.Admit(uint64(i), meshReqSize, deliver)
			}
		}, nil
	}},
	{name: "nicsim.gate_pps", make: func() (func(int), func() uint64) {
		// A PPS-capped card (Stingray): the gate's pipeline-stage path.
		eng := sim.NewEngine(driverSeed)
		gate := nicsim.NewTrafficGate(eng, spec.Stingray_PS225())
		deliver := func() {}
		return func(n int) {
			batched(n, func(i int) { gate.Admit(uint64(i), meshReqSize, deliver) }, eng.Run)
		}, nil
	}},
	{name: "sched.fcfs", make: func() (func(int), func() uint64) { return schedDriver(false) }},
	{name: "sched.drr", make: func() (func(int), func() uint64) { return schedDriver(true) }},
	{name: "msgring.to_host", make: func() (func(int), func() uint64) {
		eng := sim.NewEngine(driverSeed)
		ch := msgring.NewChannel(eng, pcie.New(eng, spec.LiquidIOII_CN2350().DMA), msgring.DefaultRingSlots, 4)
		ch.OnHostReady = func() { ch.HostPoll(64) }
		data := make([]byte, 128)
		return func(n int) {
			batched(n, func(int) {
				if _, err := ch.NICPush(msgring.Message{Kind: 1, DstActor: 1, Data: data}); err != nil {
					panic(err)
				}
			}, func() { ch.Flush(); eng.Run() })
		}, nil
	}},
	{name: "msgring.to_nic", make: func() (func(int), func() uint64) {
		eng := sim.NewEngine(driverSeed)
		ch := msgring.NewChannel(eng, pcie.New(eng, spec.LiquidIOII_CN2350().DMA), msgring.DefaultRingSlots, 4)
		ch.OnNICReady = func() { ch.NICPoll(64, func([]msgring.Message) {}) }
		data := make([]byte, 128)
		return func(n int) {
			batched(n, func(int) {
				if _, err := ch.HostPush(msgring.Message{Kind: 1, DstActor: 1, Data: data}); err != nil {
					panic(err)
				}
			}, eng.Run)
		}, nil
	}},
	{name: "pcie.dma", make: func() (func(int), func() uint64) {
		eng := sim.NewEngine(driverSeed)
		dma := pcie.New(eng, spec.LiquidIOII_CN2350().DMA)
		done := func() {}
		return func(n int) {
			batched(n, func(int) { dma.WriteAsync(64, done) }, eng.Run)
		}, nil
	}},
	{name: "dmo.read", make: func() (func(int), func() uint64) {
		st, id := dmoObject()
		return func(n int) {
			for i := 0; i < n; i++ {
				if _, err := st.Read(1, id, (i%7)*128, 128); err != nil {
					panic(err)
				}
			}
		}, nil
	}},
	{name: "dmo.write", make: func() (func(int), func() uint64) {
		st, id := dmoObject()
		p := make([]byte, 128)
		return func(n int) {
			for i := 0; i < n; i++ {
				if err := st.Write(1, id, (i%7)*128, p); err != nil {
					panic(err)
				}
			}
		}, nil
	}},
	{name: "hostsim.arrive", make: func() (func(int), func() uint64) {
		eng := sim.NewEngine(driverSeed)
		h := hostsim.New(eng, hostsim.Config{Cores: spec.IntelHost().Cores, Steal: true, PollCost: 50 * sim.Nanosecond},
			hostsim.Hooks{Run: func(*actor.Actor, actor.Msg) sim.Time { return sim.Microsecond }})
		h.AddActor(&actor.Actor{ID: 1})
		return func(n int) {
			batched(n, func(i int) { h.Arrive(actor.Msg{Dst: 1, FlowID: uint64(i), WireSize: meshReqSize}) }, eng.Run)
		}, nil
	}},
	{name: "core.deliver", make: func() (func(int), func() uint64) { return coreDriver(true) }, eventsPerOp: true},
	{name: "core.split", make: func() (func(int), func() uint64) { return coreDriver(false) }, eventsPerOp: true},
	{name: "workload.client", make: func() (func(int), func() uint64) {
		// Client.Send against a loopback echo port: one operation is the
		// request's wire hop, the echo, and the reply's wire hop.
		cl := core.NewCluster(driverSeed)
		c := workload.NewClient(cl, "cli", 10)
		cl.Net.Attach("echo", 10, netsim.HandlerFunc(func(pkt *netsim.Packet) {
			m := pkt.Payload.(actor.Msg)
			cl.Net.Send(&netsim.Packet{Src: "echo", Dst: pkt.Src, Size: pkt.Size, FlowID: pkt.FlowID,
				Payload: core.RespEnvelope{Fn: m.Reply, Msg: m}})
		}))
		return func(n int) {
			batched(n, func(i int) {
				c.Send(workload.Request{Node: "echo", Dst: 1, Size: meshReqSize, FlowID: uint64(i)})
			}, cl.Eng.Run)
			if c.Received != c.Sent {
				panic("workload.client driver lost a reply")
			}
		}, cl.Eng.Executed
	}, eventsPerOp: true},
	{name: "pdes.round_w1", make: func() (func(int), func() uint64) { return roundDriver(1) }},
	{name: "pdes.round_w2", make: func() (func(int), func() uint64) { return roundDriver(2) }},
	{name: "pdes.inject", make: func() (func(int), func() uint64) {
		g := sim.NewGroup(driverSeed, 2)
		g.TightenLookahead(pdesLookahead)
		fn := func() {}
		return func(n int) {
			batched(n, func(int) { g.Inject(0, 1, g.Engine(0).Now()+pdesLookahead, fn) },
				func() { g.RunUntil(g.Engine(0).Now()+xpartDrain, 1) })
		}, nil
	}},
	{name: "obs.span", make: func() (func(int), func() uint64) {
		return func(n int) {
			// A fresh tracer per round: the buffer is append-only, so the
			// steady state is amortized growth from empty.
			tr := obs.NewTracer()
			track := tr.NewTrack(tr.Group("node"), "lane")
			spanLoop(tr.Sink(0), track, n)
		}, nil
	}},
	{name: "obs.span_off", make: func() (func(int), func() uint64) {
		// The nil sink every instrumentation site holds when tracing is
		// off: the zero-cost-when-off claim.
		return func(n int) { spanLoop(nil, obs.NoTrack, n) }, nil
	}},
}

func spanLoop(sk *obs.Sink, track obs.TrackID, n int) {
	for i := 0; i < n; i++ {
		t := sim.Time(i)
		sk.Span(track, "op", t, t+100, obs.Args{Req: uint64(i), HasReq: true, Bytes: meshReqSize, Wait: 10})
	}
}

// pdesLookahead is netsim's cross-partition floor (300 ns propagation +
// 600 ns switch), the window every mesh_pdes round advances by.
const pdesLookahead = 900 * sim.Nanosecond

// xpartDrain is the virtual time a burst of cross-partition operations is
// given to land (Group.Run would park every clock at MaxTime): a burst of
// eight 256 B frames clears both links and the switch in under 4 µs.
const xpartDrain = 10 * sim.Microsecond

// schedDriver times Scheduler.Arrive through to completion on a 12-core
// scheduler with one non-exclusive actor, under the default FCFS
// discipline or with every actor in DRR.
func schedDriver(allDRR bool) (func(int), func() uint64) {
	eng := sim.NewEngine(driverSeed)
	cfg := sched.DefaultConfig(spec.LiquidIOII_CN2350().Cores)
	cfg.AllDRR = allDRR
	s := sched.New(eng, cfg, sched.Hooks{
		Run:     func(*actor.Actor, actor.Msg) sim.Time { return meshServiceNs },
		FwdTax:  func(int) sim.Time { return 150 * sim.Nanosecond },
		Quantum: func(int) sim.Time { return 4 * sim.Microsecond },
	})
	s.AddActor(&actor.Actor{ID: 1})
	return func(n int) {
		before := s.Completed
		batched(n, func(i int) { s.Arrive(actor.Msg{Dst: 1, FlowID: uint64(i), WireSize: meshReqSize}) }, eng.Run)
		if s.Completed-before != uint64(n) {
			panic("sched driver left messages unexecuted")
		}
	}, nil
}

// coreDriver times Node.Deliver on one offloaded CN2350 node through to
// the reply landing at the client port: with the echo actor NIC-pinned
// (gate, sched, reply on the wire) or host-pinned (gate, sched forward,
// ring and DMA to the host, host execution, reply).
func coreDriver(onNIC bool) (func(int), func() uint64) {
	cl := core.NewCluster(driverSeed)
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350(), DisableMigration: true})
	echo := &actor.Actor{
		ID: 1, Name: "echo", PinNIC: onNIC, PinHost: !onNIC,
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			ctx.Reply(m)
			return meshServiceNs
		},
	}
	if err := n.Register(echo, onNIC, 1<<20); err != nil {
		panic(err)
	}
	cl.Net.Attach("cli", 10, netsim.HandlerFunc(func(pkt *netsim.Packet) {
		env := pkt.Payload.(core.RespEnvelope)
		env.Fn(env.Msg)
	}))
	replies := 0
	reply := func(actor.Msg) { replies++ }
	return func(ops int) {
		replies = 0
		batched(ops, func(i int) {
			n.Deliver(&netsim.Packet{Src: "cli", Dst: "srv", Size: meshReqSize, FlowID: uint64(i),
				Payload: actor.Msg{Dst: 1, Origin: "cli", Reply: reply}})
		}, cl.Eng.Run)
		if replies != ops {
			panic("core driver lost a reply")
		}
	}, cl.Eng.Executed
}

// roundDriver times one conservative-window round of an 8-partition
// group in which every partition executes exactly one heartbeat event
// per window — the round's fixed cost with the least possible work in it.
func roundDriver(workers int) (func(int), func() uint64) {
	g := sim.NewGroup(driverSeed, 8)
	g.TightenLookahead(pdesLookahead)
	for p := 0; p < g.Partitions(); p++ {
		eng := g.Engine(p)
		var beat func()
		beat = func() { eng.After(pdesLookahead, beat) }
		eng.After(0, beat)
	}
	return func(n int) {
		start := g.Rounds()
		g.RunUntil(g.Engine(0).Now()+sim.Time(n)*pdesLookahead, workers)
		if got := g.Rounds() - start; got < uint64(n) || got > uint64(n)+1 {
			panic("pdes round driver: window count drifted from one per heartbeat")
		}
	}, nil
}

func dmoObject() (*dmo.Store, dmo.ObjID) {
	st := dmo.NewStore()
	st.Register(1, 1<<20)
	id, err := st.Alloc(1, 1024, dmo.NIC)
	if err != nil {
		panic(err)
	}
	return st, id
}
