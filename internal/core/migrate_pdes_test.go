package core_test

// Migration-path regression tests: the forced-migration latch and
// dead-hardware guards (classic clusters), pull-migration records, and
// the window-boundary migration commit on partitioned (PDES) clusters,
// including fault arms landing between migration phases.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/dmo"
	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// TestMigrateNowHoldsLatch: a forced migration acquires the scheduler's
// single-migration latch, so a second forced migration while one is in
// flight is refused instead of interleaving with it and double-running
// MigrationDone. (Before the fix both calls returned true and the two
// protocols ran concurrently on one node.)
func TestMigrateNowHoldsLatch(t *testing.T) {
	cl := core.NewCluster(1)
	chk := cl.AttachCheckers()[0]
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350(), DisableMigration: true})
	a1, a2 := echoActor(1, sim.Microsecond), echoActor(2, sim.Microsecond)
	a2.Name = "echo2"
	n.Register(a1, true, 0)
	n.Register(a2, true, 0)

	if !n.MigrateNow(1) {
		t.Fatal("first MigrateNow refused on an idle node")
	}
	if n.MigrateNow(2) {
		t.Fatal("second MigrateNow accepted while a migration is in flight (latch not held)")
	}
	cl.Eng.Run()
	if len(n.Migrations) != 1 {
		t.Fatalf("migrations recorded = %d, want exactly the latched one", len(n.Migrations))
	}
	// Latch released at the end of the protocol: the refused migration
	// can be retried now.
	if !n.MigrateNow(2) {
		t.Fatal("MigrateNow refused after the in-flight migration completed")
	}
	cl.Eng.Run()
	if len(n.Migrations) != 2 {
		t.Fatalf("migrations recorded = %d after retry, want 2", len(n.Migrations))
	}
	if vs := chk.Violations(); len(vs) != 0 {
		t.Fatal(vs)
	}
}

// TestMigrateNowDeadHardware: forcing a push on a crashed node or a
// failed NIC complex must refuse instead of running the 4-phase
// protocol against dead hardware. (Before the fix a crashed node
// happily drained, executed, and moved objects.)
func TestMigrateNowDeadHardware(t *testing.T) {
	cl := core.NewCluster(1)
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350(), DisableMigration: true})
	n.Register(echoActor(1, sim.Microsecond), true, 0)

	n.Fail()
	if n.MigrateNow(1) {
		t.Fatal("MigrateNow ran the migration protocol on a crashed node")
	}
	if n.PullNow() {
		t.Fatal("PullNow ran on a crashed node")
	}
	n.Recover()

	n.FailNIC() // re-homes the actor to the host
	cl.Eng.Run()
	if n.MigrateNow(1) {
		t.Fatal("MigrateNow accepted with the NIC complex down")
	}
	if n.PullNow() {
		t.Fatal("PullNow accepted with the NIC complex down (would start the actor on dead cores)")
	}
	n.RecoverNIC()
	// With the NIC back, the host-resident actor is pullable again.
	if !n.PullNow() {
		t.Fatal("PullNow refused after RecoverNIC")
	}
	cl.Eng.Run()
	if side, err := actorSide(cl, n, 1); err != nil || side != dmo.NIC {
		t.Fatalf("actor side after pull = %v/%v, want NIC", side, err)
	}
}

// TestPullBouncesOffDeadNIC: a NIC complex that fails while a pulled
// actor's objects cross PCIe bounces the actor back to the host. The
// aborted pull records no migration, releases the latch and resolves
// the checker's begun migration, so the next pull runs clean.
func TestPullBouncesOffDeadNIC(t *testing.T) {
	cl := core.NewCluster(1)
	chk := cl.AttachCheckers()[0]
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350(), DisableMigration: true})
	a := echoActor(1, sim.Microsecond)
	a.OnInit = func(ctx actor.Ctx) { ctx.Alloc(1 << 20) }
	n.Register(a, false, 0)

	if !n.PullNow() {
		t.Fatal("pull refused")
	}
	n.FailNIC() // the objects are still in flight
	cl.Eng.Run()
	if side, err := actorSide(cl, n, 1); err != nil || side != dmo.Host {
		t.Fatalf("actor side after the bounced pull = %v/%v, want Host", side, err)
	}
	if len(n.Migrations) != 0 {
		t.Fatalf("migrations recorded = %d, want none for an aborted pull", len(n.Migrations))
	}
	n.RecoverNIC()
	if !n.PullNow() {
		t.Fatal("PullNow refused after the bounce: latch still held")
	}
	cl.Eng.Run()
	if side, err := actorSide(cl, n, 1); err != nil || side != dmo.NIC {
		t.Fatalf("actor side after the second pull = %v/%v, want NIC", side, err)
	}
	if vs := chk.Violations(); len(vs) != 0 {
		t.Fatal(vs)
	}
}

// TestPullRecordsMigration: pull migrations append a MigrationRecord
// with the direction tag, so Node.Migrations accounts both directions
// (the Figure 18 ledger used to silently undercount pulls).
func TestPullRecordsMigration(t *testing.T) {
	cl := core.NewCluster(1)
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350(), DisableMigration: true})
	a := echoActor(7, sim.Microsecond)
	a.OnInit = func(ctx actor.Ctx) { ctx.Alloc(1 << 20) }
	n.Register(a, true, 0)

	if !n.MigrateNow(7) {
		t.Fatal("push refused")
	}
	cl.Eng.Run()
	if !n.PullNow() {
		t.Fatal("pull refused")
	}
	cl.Eng.Run()

	if len(n.Migrations) != 2 {
		t.Fatalf("migrations recorded = %d, want push + pull", len(n.Migrations))
	}
	push, pull := n.Migrations[0], n.Migrations[1]
	if push.Pull {
		t.Fatal("push record tagged as pull")
	}
	if !pull.Pull {
		t.Fatal("pull migration not tagged: Figure 18 ledger would undercount")
	}
	if pull.BytesMoved < 1<<20 {
		t.Fatalf("pull moved %d bytes, want the 1MB DMO region", pull.BytesMoved)
	}
	if pull.Total() <= 0 {
		t.Fatal("pull record has no elapsed time")
	}
}

// runMigrationMeshPDES drives a 4-node, 2-partition mesh through forced
// push migrations with crash and NIC-down arms landing between the
// migration phases, pulls after recovery, and live cross-partition
// traffic throughout. It returns the per-partition invariant
// fingerprints plus a placement digest; everything is asserted
// byte-identical across worker counts by the callers.
func runMigrationMeshPDES(t *testing.T, seed uint64, workers int) string {
	t.Helper()
	const nodes, parts = 4, 2
	window := 3 * sim.Millisecond

	cl := core.NewPartitionedCluster(seed, parts)
	chks := cl.AttachCheckers()
	cl.SetPDESWorkers(workers)
	var nn []*core.Node
	for i := 0; i < nodes; i++ {
		n := cl.AddNode(core.Config{ // note: no DisableMigration
			Name: fmt.Sprintf("n%02d", i), NIC: spec.LiquidIOII_CN2350(), LinkGbps: 10,
		})
		a := &actor.Actor{
			ID: actor.ID(1 + i), Name: fmt.Sprintf("svc%02d", i),
			OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
				ctx.Reply(m)
				return sim.Microsecond
			},
			OnInit: func(ctx actor.Ctx) { ctx.Alloc(256 << 10) },
		}
		if err := n.Register(a, true, 1<<20); err != nil {
			t.Fatal(err)
		}
		nn = append(nn, n)
	}
	clients := make([]*workload.Client, nodes)
	for i := 0; i < nodes; i++ {
		clients[i] = workload.NewClientAt(cl, fmt.Sprintf("c%02d", i), 10, nn[i].Part)
	}
	for i := 0; i < nodes; i++ {
		i := i
		c := clients[i]
		dst := (i + 1) % nodes
		var tick func(k uint64)
		tick = func(k uint64) {
			c.Send(workload.Request{
				Node: fmt.Sprintf("n%02d", dst), Dst: actor.ID(1 + dst),
				Size: 256, FlowID: uint64(i)<<32 | k,
			})
			if next := c.Eng().Now() + 10*sim.Microsecond; next <= window {
				c.Eng().At(next, func() { tick(k + 1) })
			}
		}
		c.Eng().At(sim.Time(i+1)*sim.Microsecond, func() { tick(0) })
	}

	// Forced pushes at 500µs on every node, from the owning partition's
	// engine — mid-window, exactly the context the deferred commit
	// exists for.
	migrated := make([]bool, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		nn[i].Eng().At(500*sim.Microsecond, func() { migrated[i] = nn[i].MigrateNow(actor.ID(1 + i)) })
	}
	// Fault arms landing between migration phases 1–4:
	//   - n0 crashes at the 750µs window boundary (mid phase 2/3) and
	//     recovers at 1.5ms — both cluster-wide barrier arms.
	//   - n1's NIC complex dies at 600µs (mid phase 1) on its own
	//     partition engine — a local arm — and returns at 1.5ms.
	cl.Group.AtBarrier(750*sim.Microsecond, func() { nn[0].Fail() })
	cl.Group.AtBarrier(1500*sim.Microsecond, func() { nn[0].Recover() })
	nn[1].Eng().At(600*sim.Microsecond, func() { nn[1].FailNIC() })
	nn[1].Eng().At(1500*sim.Microsecond, func() { nn[1].RecoverNIC() })
	// Pulls after recovery: the pushed actors come back to the NIC.
	for i := 0; i < nodes; i++ {
		i := i
		nn[i].Eng().At(2*sim.Millisecond, func() { nn[i].PullNow() })
	}

	cl.RunUntil(window + time500)

	for i := 0; i < nodes; i++ {
		if !migrated[i] {
			t.Fatalf("forced push on n%02d was refused", i)
		}
	}
	// Placement digest: every actor must still be resolvable on its
	// node, whatever side it ended on.
	var digest strings.Builder
	for i := 0; i < nodes; i++ {
		side, err := actorSide(cl, nn[i], actor.ID(1+i))
		if err != nil {
			t.Fatalf("actor %d lost after migrations+faults: %v", 1+i, err)
		}
		fmt.Fprintf(&digest, "n%02d=%s migs=%d;", i, side, len(nn[i].Migrations))
	}

	invariant.CrossCheckHandoffs(chks)
	fps := make([]string, 0, len(chks))
	for _, chk := range chks {
		chk.Finish()
		if vs := chk.Violations(); len(vs) != 0 {
			t.Fatalf("workers=%d: %v", workers, vs)
		}
		fps = append(fps, chk.Fingerprint())
	}
	return digest.String() + "\n" + invariant.SortFingerprints(fps)
}

const time500 = 500 * sim.Microsecond

// TestMigrationUnderPDESFaultArms: crash and NIC-down arms landing
// between migration phases 1–4 on a partitioned cluster leave the
// actor table, DMO byte accounting, and handoff ledgers consistent —
// invariant-checked at both seeds — and the whole run (fingerprints
// and placements) is byte-identical at 1, 2, and 4 workers.
func TestMigrationUnderPDESFaultArms(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		base := runMigrationMeshPDES(t, seed, 1)
		for _, w := range []int{2, 4} {
			if got := runMigrationMeshPDES(t, seed, w); got != base {
				t.Fatalf("seed=%d: run diverged at %d workers:\n got %q\nwant %q", seed, w, got, base)
			}
		}
	}
}

// TestPartitionedClusterAllowsMigration: AddNode no longer requires
// DisableMigration on partitioned clusters (the old rejection), and a
// plain forced migration commits at a window boundary with the table
// flipped to the host side.
func TestPartitionedClusterAllowsMigration(t *testing.T) {
	cl := core.NewPartitionedCluster(3, 2)
	n0 := cl.AddNode(core.Config{Name: "a", NIC: spec.LiquidIOII_CN2350()})
	n1 := cl.AddNode(core.Config{Name: "b", NIC: spec.LiquidIOII_CN2350()})
	n0.Register(echoActor(1, sim.Microsecond), true, 0)
	n1.Register(echoActor(2, sim.Microsecond), true, 0)
	// Traffic keeps both partitions' windows advancing.
	c := workload.NewClientAt(cl, "cli", 10, n0.Part)
	for i := 0; i < 50; i++ {
		i := i
		c.Eng().At(sim.Time(i)*20*sim.Microsecond, func() {
			c.Send(workload.Request{Node: "b", Dst: 2, Size: 256, FlowID: uint64(i)})
		})
	}
	ok := false
	n1.Eng().At(200*sim.Microsecond, func() { ok = n1.MigrateNow(2) })
	cl.RunUntil(2 * sim.Millisecond)
	if !ok {
		t.Fatal("MigrateNow refused on a partitioned cluster")
	}
	side, err := actorSide(cl, n1, 2)
	if err != nil || side != dmo.Host {
		t.Fatalf("actor side = %v/%v, want Host after the deferred commit", side, err)
	}
	if len(n1.Migrations) != 1 || n1.Migrations[0].Pull {
		t.Fatalf("migration record missing or mistagged: %+v", n1.Migrations)
	}
	if c.Received == 0 {
		t.Fatal("no traffic answered across the migration")
	}
}

// actorSide is where an actor runs on n, read from the cluster's actor
// table.
func actorSide(cl *core.Cluster, n *core.Node, id actor.ID) (dmo.Side, error) {
	ref, ok := cl.Table.Lookup(id)
	if !ok || ref.Node != n.Name {
		return 0, fmt.Errorf("actor %d not on %s", id, n.Name)
	}
	if ref.OnNIC {
		return dmo.NIC, nil
	}
	return dmo.Host, nil
}
