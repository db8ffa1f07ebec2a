package core_test

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// echoActor replies to every request with the same payload.
func echoActor(id actor.ID, cost sim.Time) *actor.Actor {
	return &actor.Actor{
		ID:   id,
		Name: "echo",
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			ctx.Reply(m)
			return cost
		},
	}
}

func TestEndToEndNICEcho(t *testing.T) {
	cl := core.NewCluster(1)
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350()})
	if err := n.Register(echoActor(1, 2*sim.Microsecond), true, 0); err != nil {
		t.Fatal(err)
	}
	client := workload.NewClient(cl, "cli", 10)
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * 10 * sim.Microsecond
		i := i
		cl.Eng.At(at, func() {
			client.Send(workload.Request{Node: "srv", Dst: 1, Size: 512, FlowID: uint64(i)})
		})
	}
	cl.Eng.Run()
	if client.Received != 100 {
		t.Fatalf("received %d of 100", client.Received)
	}
	p50 := client.Lat.Percentile(50)
	// RTT: ~2µs wire each way + ~0.5µs forwarding + 2µs exec ≈ 5-10µs.
	if p50 < 3 || p50 > 20 {
		t.Fatalf("median latency %vµs implausible", p50)
	}
	// Entirely NIC-resident: host CPU should be ≈0.
	if used := n.HostCoresUsed(); used > 0.01 {
		t.Fatalf("NIC-resident echo used %.3f host cores", used)
	}
}

func TestEndToEndHostActorViaRings(t *testing.T) {
	cl := core.NewCluster(1)
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350()})
	a := echoActor(2, 2*sim.Microsecond)
	a.PinHost = true
	if err := n.Register(a, true, 0); err != nil { // forced to host by PinHost
		t.Fatal(err)
	}
	client := workload.NewClient(cl, "cli", 10)
	for i := 0; i < 50; i++ {
		at := sim.Time(i) * 20 * sim.Microsecond
		cl.Eng.At(at, func() {
			client.Send(workload.Request{Node: "srv", Dst: 2, Size: 256})
		})
	}
	cl.Eng.Run()
	if client.Received != 50 {
		t.Fatalf("received %d of 50", client.Received)
	}
	if used := n.HostCoresUsed(); used <= 0 {
		t.Fatal("host-resident actor consumed no host CPU")
	}
	// The messages crossed the PCIe rings.
	if n.Chan.ToHost().Pushed == 0 {
		t.Fatal("no ring traffic for a host-resident actor")
	}
}

func TestBaselineDPDKNode(t *testing.T) {
	cl := core.NewCluster(1)
	n := cl.AddNode(core.Config{Name: "srv"}) // no NIC
	if n.Offloaded() {
		t.Fatal("baseline node claims offload")
	}
	if err := n.Register(echoActor(3, 2*sim.Microsecond), true, 0); err != nil {
		t.Fatal(err)
	}
	client := workload.NewClient(cl, "cli", 10)
	for i := 0; i < 50; i++ {
		at := sim.Time(i) * 20 * sim.Microsecond
		cl.Eng.At(at, func() {
			client.Send(workload.Request{Node: "srv", Dst: 3, Size: 512})
		})
	}
	cl.Eng.Run()
	if client.Received != 50 {
		t.Fatalf("received %d of 50", client.Received)
	}
}

// TestCoreSavingsHeadline is the paper's headline claim in miniature:
// the same workload consumes fewer host cores with iPipe than with the
// DPDK baseline, because the actor work runs on the NIC.
func TestCoreSavingsHeadline(t *testing.T) {
	run := func(offload bool) float64 {
		cl := core.NewCluster(1)
		cfg := core.Config{Name: "srv"}
		if offload {
			cfg.NIC = spec.LiquidIOII_CN2350()
		}
		n := cl.AddNode(cfg)
		n.Register(echoActor(1, 3*sim.Microsecond), offload, 0)
		client := workload.NewClient(cl, "cli", 10)
		client.OpenLoop(200000, 20*sim.Millisecond, func(i uint64) workload.Request {
			return workload.Request{Node: "srv", Dst: 1, Size: 512, FlowID: i}
		})
		cl.Eng.Run()
		if client.Received < client.Sent*95/100 {
			t.Fatalf("offload=%v: only %d/%d responses", offload, client.Received, client.Sent)
		}
		return n.HostCoresUsed()
	}
	base, ipipe := run(false), run(true)
	if base < 0.3 {
		t.Fatalf("baseline host usage %.2f suspiciously low", base)
	}
	if ipipe > base/5 {
		t.Fatalf("iPipe host usage %.2f should be far below baseline %.2f", ipipe, base)
	}
}

func TestCrossPCIeActorMessaging(t *testing.T) {
	cl := core.NewCluster(1)
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350()})
	done := 0
	sink := &actor.Actor{
		ID: 20, Name: "sink", PinHost: true,
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			done++
			return sim.Microsecond
		},
	}
	relay := &actor.Actor{
		ID: 21, Name: "relay",
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			ctx.Send(20, actor.Msg{Kind: 9, Data: m.Data})
			return sim.Microsecond
		},
	}
	n.Register(sink, false, 0)
	n.Register(relay, true, 0)
	client := workload.NewClient(cl, "cli", 10)
	for i := 0; i < 10; i++ {
		at := sim.Time(i) * 30 * sim.Microsecond
		cl.Eng.At(at, func() {
			client.Send(workload.Request{Node: "srv", Dst: 21, Size: 128})
		})
	}
	cl.Eng.Run()
	if done != 10 {
		t.Fatalf("host sink saw %d of 10 relayed messages", done)
	}
}

func TestRemoteActorMessaging(t *testing.T) {
	cl := core.NewCluster(1)
	n1 := cl.AddNode(core.Config{Name: "a", NIC: spec.LiquidIOII_CN2350()})
	n2 := cl.AddNode(core.Config{Name: "b", NIC: spec.LiquidIOII_CN2350()})
	got := 0
	n2.Register(&actor.Actor{
		ID: 31, Name: "peer",
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			got++
			return sim.Microsecond
		},
	}, true, 0)
	n1.Register(&actor.Actor{
		ID: 30, Name: "origin",
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			ctx.Send(31, actor.Msg{Data: []byte("x")})
			return sim.Microsecond
		},
	}, true, 0)
	client := workload.NewClient(cl, "cli", 10)
	client.Send(workload.Request{Node: "a", Dst: 30, Size: 64})
	cl.Eng.Run()
	if got != 1 {
		t.Fatalf("remote actor saw %d messages", got)
	}
}

func TestPushMigrationUnderOverload(t *testing.T) {
	cl := core.NewCluster(1)
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350()})
	heavy := &actor.Actor{
		ID: 40, Name: "heavy",
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			ctx.Reply(m)
			return 200 * sim.Microsecond // far beyond NIC capacity at this rate
		},
	}
	heavy.OnInit = func(ctx actor.Ctx) {
		obj, _ := ctx.Alloc(1 << 20)
		ctx.ObjWrite(obj, 0, []byte("state"))
	}
	n.Register(heavy, true, 0)
	client := workload.NewClient(cl, "cli", 10)
	client.OpenLoop(50000, 30*sim.Millisecond, func(i uint64) workload.Request {
		return workload.Request{Node: "srv", Dst: 40, Size: 512, FlowID: i}
	})
	cl.Eng.Run()
	if len(n.Migrations) == 0 {
		t.Fatal("overloaded actor never migrated to the host")
	}
	rec := n.Migrations[0]
	if rec.BytesMoved < 1<<20 {
		t.Fatalf("migration moved %d bytes, want ≥1MB of DMO state", rec.BytesMoved)
	}
	if rec.Phase[2] <= rec.Phase[0] {
		t.Fatal("phase 3 (object move) should dominate phase 1")
	}
	// The actor must still be deployed somewhere on this node (it may
	// have been pulled back to the NIC once the open loop ended and
	// load dropped — that is the adaptive behavior working).
	if _, err := actorSide(cl, n, 40); err != nil {
		t.Fatalf("actor lost after migration: %v", err)
	}
	if client.Received < client.Sent/2 {
		t.Fatalf("too many lost responses across migration: %d/%d", client.Received, client.Sent)
	}
}

func TestMigrateNowRecordsPhases(t *testing.T) {
	cl := core.NewCluster(1)
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350()})
	a := echoActor(50, 2*sim.Microsecond)
	a.OnInit = func(ctx actor.Ctx) {
		ctx.Alloc(32 << 20) // a 32MB Memtable-sized object
	}
	n.Register(a, true, 0)
	if !n.MigrateNow(50) {
		t.Fatal("MigrateNow refused")
	}
	cl.Eng.Run()
	if len(n.Migrations) != 1 {
		t.Fatalf("migrations = %d", len(n.Migrations))
	}
	rec := n.Migrations[0]
	// Appendix B.3: a 32MB object takes ≈35ms in phase 3.
	p3 := rec.Phase[2]
	if p3 < 30*sim.Millisecond || p3 > 45*sim.Millisecond {
		t.Fatalf("phase 3 = %v, want ≈35ms for 32MB", p3)
	}
	if rec.Total() <= p3 {
		t.Fatal("total must include all phases")
	}
}

func TestWatchdogKillsRunawayActor(t *testing.T) {
	cl := core.NewCluster(1)
	n := cl.AddNode(core.Config{
		Name: "srv", NIC: spec.LiquidIOII_CN2350(),
		WatchdogTimeout: 100 * sim.Microsecond,
	})
	evil := &actor.Actor{
		ID: 60, Name: "evil",
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			return sim.Second // infinite loop
		},
	}
	n.Register(evil, true, 0)
	n.Register(echoActor(61, sim.Microsecond), true, 0)
	client := workload.NewClient(cl, "cli", 10)
	client.Send(workload.Request{Node: "srv", Dst: 60, Size: 64})
	for i := 0; i < 10; i++ {
		at := sim.Time(i+1) * 200 * sim.Microsecond
		cl.Eng.At(at, func() {
			client.Send(workload.Request{Node: "srv", Dst: 61, Size: 64})
		})
	}
	cl.Eng.Run()
	if n.Watchdog.Kills != 1 {
		t.Fatalf("watchdog kills = %d", n.Watchdog.Kills)
	}
	if _, ok := cl.Table.Lookup(60); ok {
		t.Fatal("killed actor still in table")
	}
	// Other actors keep running; availability preserved.
	if client.Received != 10 {
		t.Fatalf("echo served %d of 10 after the kill", client.Received)
	}
}

func TestIsolationViolationRecorded(t *testing.T) {
	cl := core.NewCluster(1)
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350()})
	var victimObj uint64
	victim := &actor.Actor{ID: 70, Name: "victim"}
	victim.OnInit = func(ctx actor.Ctx) { victimObj, _ = ctx.Alloc(64) }
	attacker := &actor.Actor{
		ID: 71, Name: "attacker",
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			if err := ctx.ObjWrite(victimObj, 0, []byte("pwn")); err == nil {
				t.Error("cross-actor write succeeded")
			}
			return sim.Microsecond
		},
	}
	n.Register(victim, true, 0)
	n.Register(attacker, true, 0)
	client := workload.NewClient(cl, "cli", 10)
	client.Send(workload.Request{Node: "srv", Dst: 71, Size: 64})
	cl.Eng.Run()
	if n.Violations.Count(71) != 1 {
		t.Fatalf("violations recorded: %d", n.Violations.Count(71))
	}
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	cl := core.NewCluster(1)
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350()})
	a := echoActor(80, sim.Microsecond)
	if err := n.Register(a, true, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(echoActor(80, sim.Microsecond), true, 0); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	n2 := cl.AddNode(core.Config{Name: "srv2", NIC: spec.LiquidIOII_CN2350()})
	if err := n2.Register(echoActor(80, sim.Microsecond), true, 0); err == nil {
		t.Fatal("cross-node duplicate accepted")
	}
}

func TestFrameworkOverheadRawVsIPipe(t *testing.T) {
	run := func(raw bool) float64 {
		cl := core.NewCluster(1)
		n := cl.AddNode(core.Config{Name: "srv", RawState: raw})
		a := &actor.Actor{
			ID: 1, Name: "kv",
			OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
				// A stateful op: read-modify-write a DMO.
				obj, _ := ctx.Alloc(128)
				ctx.ObjWrite(obj, 0, m.Data)
				ctx.ObjRead(obj, 0, 64)
				ctx.Free(obj)
				ctx.Reply(m)
				return 3 * sim.Microsecond
			},
		}
		n.Register(a, false, 0)
		client := workload.NewClient(cl, "cli", 10)
		client.OpenLoop(100000, 20*sim.Millisecond, func(i uint64) workload.Request {
			return workload.Request{Node: "srv", Dst: 1, Size: 512, FlowID: i, Data: make([]byte, 64)}
		})
		cl.Eng.Run()
		return n.HostCoresUsed()
	}
	raw, ipipe := run(true), run(false)
	if ipipe <= raw {
		t.Fatalf("iPipe host-only (%v cores) should cost more than raw (%v): §5.5", ipipe, raw)
	}
	overhead := (ipipe - raw) / raw
	if overhead > 0.5 {
		t.Fatalf("framework overhead %.0f%% too large (paper: ≈12%%)", overhead*100)
	}
}

// TestWatchdogKillCommitPoint: the watchdog's table rewrite goes through
// the group's DeferBarrier, so where it lands is the substrate's call —
// inline on a classic (1-partition) cluster, at the next window
// boundary in partition order on a partitioned one, at any worker
// count. Two runaway actors on different nodes trip their watchdogs at
// the same instant; each then probes the table at that same instant
// (a zero-delay follow-on event) and again from a deferred action
// queued behind its own kill.
func TestWatchdogKillCommitPoint(t *testing.T) {
	type seen struct{ own, other bool } // still in the table?
	run := func(parts, workers int) (sameInstant, atCommit [2]seen) {
		cl := core.NewPartitionedCluster(1, parts)
		cl.SetPDESWorkers(workers)
		ids := [2]actor.ID{61, 62}
		inTable := func(id actor.ID) bool { _, ok := cl.Table.Lookup(id); return ok }
		for i := 0; i < 4; i++ {
			n := cl.AddNode(core.Config{
				Name: string(rune('a' + i)), NIC: spec.LiquidIOII_CN2350(),
				WatchdogTimeout: 100 * sim.Microsecond,
			})
			k := i - 1 // nodes b and c host the runaways
			if k < 0 || k > 1 {
				continue
			}
			evil := &actor.Actor{ID: ids[k], OnMessage: func(actor.Ctx, actor.Msg) sim.Time {
				n.Eng().After(0, func() {
					sameInstant[k] = seen{inTable(ids[k]), inTable(ids[1-k])}
					cl.Group.DeferBarrier(n.Part, func() {
						atCommit[k] = seen{inTable(ids[k]), inTable(ids[1-k])}
					})
				})
				return sim.Second // never yields
			}}
			if err := n.Register(evil, true, 0); err != nil {
				t.Fatal(err)
			}
			n.Eng().At(10*sim.Microsecond, func() { n.Inject(actor.Msg{Kind: 1, Dst: ids[k]}) })
		}
		cl.RunUntil(sim.Millisecond)
		for _, id := range ids {
			if inTable(id) {
				t.Fatalf("parts=%d: killed actor %d still in the table after the run", parts, id)
			}
		}
		return sameInstant, atCommit
	}

	same, _ := run(1, 1)
	for k, s := range same {
		if s.own {
			t.Errorf("classic: runaway %d still in the table right after its kill; want an inline kill", k)
		}
	}
	for _, workers := range []int{1, 4} {
		same, commit := run(4, workers)
		for k, s := range same {
			if !s.own {
				t.Errorf("4 partitions, %d workers: runaway %d left the table mid-window; want the kill deferred", workers, k)
			}
		}
		// Partition order: b's deferrals (its kill, then its probe) run
		// before c's, whichever window goroutine got there first.
		if commit[0] != (seen{own: false, other: true}) || commit[1] != (seen{}) {
			t.Errorf("4 partitions, %d workers: kills did not land in partition order at the boundary: %+v", workers, commit)
		}
	}
}
