package deploy

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/actor"
	"repro/internal/apps/dt"
	"repro/internal/apps/rkv"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

func rkvTestCluster(t *testing.T, seed uint64, sched fault.Schedule, fo FailoverPolicy) (*core.Cluster, *RKV) {
	t.Helper()
	cl := core.NewCluster(seed)
	var nodes []*core.Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, cl.AddNode(core.Config{
			Name: fmt.Sprintf("kv%d", i), NIC: spec.LiquidIOII_CN2350(), LinkGbps: 10,
		}))
	}
	d, err := RKVSpec{
		Common: Common{Placement: NIC, Failover: fo, Faults: sched},
		Nodes:  nodes, BaseID: 100, MemLimit: 8 << 20,
	}.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	return cl, d
}

// TestRKVReadsSurviveLeaderCrash is the headline recovery scenario: the
// leader node crashes, the failover monitor triggers a re-election, and
// the store keeps serving — reads from follower memtables throughout
// the outage, writes again once the new leader is installed.
func TestRKVReadsSurviveLeaderCrash(t *testing.T) {
	crashAt := 2 * sim.Millisecond
	sched := fault.Schedule{Faults: []fault.Fault{
		fault.Crash("kv0", crashAt, 3*sim.Millisecond),
	}}
	cl, d := rkvTestCluster(t, 1, sched, FailoverPolicy{})
	client := workload.NewClient(cl, "cli", 10)

	send := func(at sim.Time, node string, id actor.ID, data []byte, status *rkv.Status) {
		cl.Eng.At(at, func() {
			client.Send(workload.Request{
				Node: node, Dst: id, Kind: rkv.KindReq, Data: data, Size: 512,
				OnResp: func(m actor.Msg) { *status = rkv.StatusOf(m.Data) },
			})
		})
	}
	rep := func(i int) (string, actor.ID) {
		r := d.Replicas[i]
		return r.Node.Name, r.Consensus.Actor.ID
	}

	var wrote, readDuring, wroteAfter rkv.Status
	n0, c0 := rep(0)
	n1, c1 := rep(1)
	// Before the crash: write through the leader so the value replicates.
	send(100*sim.Microsecond, n0, c0, rkv.PutReq([]byte("k"), []byte("v")), &wrote)
	// During the outage (past the detection delay): a follower must still
	// serve the read from its memtable.
	send(crashAt+sim.Millisecond, n1, c1, rkv.GetReq([]byte("k")), &readDuring)
	// Still during the outage, after re-election: the new leader (first
	// live replica in order, kv1) must accept a write.
	send(crashAt+1500*sim.Microsecond, n1, c1, rkv.PutReq([]byte("k2"), []byte("v2")), &wroteAfter)
	cl.Eng.Run()

	if wrote != rkv.StatusOK {
		t.Fatalf("pre-crash write status = %v, want OK", wrote)
	}
	if readDuring != rkv.StatusOK {
		t.Fatalf("read during leader outage = %v, want OK (followers serve reads locally)", readDuring)
	}
	if wroteAfter != rkv.StatusOK {
		t.Fatalf("write after re-election = %v, want OK", wroteAfter)
	}
	if d.Elections == 0 {
		t.Fatal("failover monitor never triggered an election")
	}
	// kv1 (first live replica in order) must have won the election. The
	// restarted kv0 may still carry a stale IsLeader flag until it
	// observes the higher ballot — that is expected; what matters is a
	// live leader exists off the crashed node.
	if !d.Replicas[1].Consensus.IsLeader {
		t.Fatal("kv1 did not take over leadership after the crash")
	}
}

// TestRKVFailoverDisabled checks Disabled keeps the monitor out: the
// crash happens, nobody triggers an election.
func TestRKVFailoverDisabled(t *testing.T) {
	sched := fault.Schedule{Faults: []fault.Fault{
		fault.Crash("kv0", sim.Millisecond, sim.Millisecond),
	}}
	cl, d := rkvTestCluster(t, 1, sched, FailoverPolicy{Disabled: true})
	cl.Eng.Run()
	if d.Elections != 0 {
		t.Fatalf("Elections = %d with failover disabled", d.Elections)
	}
}

// twoPartKeys returns write keys for txn i that land on two different
// participants (out of n), so commits genuinely span stores.
func twoPartKeys(i uint64, n int) ([]byte, []byte) {
	a := []byte(fmt.Sprintf("a%d", i))
	pa := dt.Partition(a, n)
	for j := 0; ; j++ {
		b := []byte(fmt.Sprintf("b%d-%d", i, j))
		if dt.Partition(b, n) != pa {
			return a, b
		}
	}
}

// TestDTCoordinatorCrashAtomicity kills the coordinator mid-window and
// checks 2PC's promise the hard way: every transaction's writes are
// all-or-nothing across participants, no transaction both aborts at the
// client and installs data, and no participant is left holding a lock.
func TestDTCoordinatorCrashAtomicity(t *testing.T) {
	cl := core.NewCluster(1)
	mk := func(name string) *core.Node {
		return cl.AddNode(core.Config{Name: name, NIC: spec.LiquidIOII_CN2350(), LinkGbps: 10})
	}
	coord := mk("coord")
	parts := []*core.Node{mk("p1"), mk("p2"), mk("p3")}
	const txnTimeout = 500 * sim.Microsecond
	d, err := DTSpec{
		Common: Common{
			Placement: NIC,
			Faults: fault.Schedule{Faults: []fault.Fault{
				fault.Crash("coord", 800*sim.Microsecond, 600*sim.Microsecond),
			}},
		},
		Coordinator: coord, Participants: parts, BaseID: 100,
		TxnTimeout: txnTimeout, LockLease: sim.Millisecond,
	}.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	client := workload.NewClient(cl, "cli", 10)

	const txns = 100
	outcomes := make(map[uint64]dt.Outcome)
	// Issue times: a steady stream every 25µs, except txns 28–47 fire as
	// a burst at 795µs — the coordinator is still chewing through their
	// 2PC rounds when it dies at 800µs, guaranteeing transactions
	// stranded mid-protocol for the sweep to abort after the restart.
	issueAt := func(i uint64) sim.Time {
		if i >= 28 && i < 48 {
			return 795 * sim.Microsecond
		}
		return sim.Time(i) * 25 * sim.Microsecond
	}
	for i := 0; i < txns; i++ {
		i := uint64(i)
		cl.Eng.At(issueAt(i), func() {
			ka, kb := twoPartKeys(i, len(parts))
			val := []byte(fmt.Sprintf("txn%d", i))
			client.Send(workload.Request{
				Node: "coord", Dst: 100, Kind: dt.KindTxn,
				Data: dt.EncodeTxn(dt.Txn{Writes: []dt.Op{
					{Key: ka, Value: val}, {Key: kb, Value: val},
				}}),
				Size: 512, FlowID: i,
				OnResp: func(m actor.Msg) {
					o, _ := dt.DecodeOutcome(m.Data)
					outcomes[i] = o
				},
			})
		})
	}
	cl.Eng.Run()

	lookup := func(k []byte) []byte {
		for _, st := range d.Stores {
			if r := st.Get(k); r != nil {
				return r.Value
			}
		}
		return nil
	}
	partial, committed := 0, 0
	for i := uint64(0); i < txns; i++ {
		ka, kb := twoPartKeys(i, len(parts))
		val := fmt.Sprintf("txn%d", i)
		installed := 0
		if string(lookup(ka)) == val {
			installed++
		}
		if string(lookup(kb)) == val {
			installed++
		}
		switch outcomes[i] {
		case dt.OutcomeCommitted:
			committed++
			if installed != 2 {
				t.Errorf("txn %d committed at client but %d/2 writes installed", i, installed)
			}
		case dt.OutcomeAborted:
			if installed != 0 {
				t.Errorf("txn %d aborted but %d/2 writes installed", i, installed)
			}
		default:
			// Swallowed by the coordinator outage: either outcome is
			// legal, but it must be atomic.
			if installed == 1 {
				partial++
				t.Errorf("txn %d (no client outcome) partially installed", i)
			}
		}
	}
	if committed == 0 {
		t.Fatal("no transaction committed — scenario did not exercise the commit path")
	}
	if d.Coord.TimeoutAborts == 0 {
		t.Fatal("sweep never timeout-aborted a stranded transaction")
	}
	now := cl.Eng.Now()
	for si, st := range d.Stores {
		if n := st.Locks(now, sim.Millisecond); n != 0 {
			t.Errorf("store %d: %d live locks after drain", si, n)
		}
		if n := st.Locks(0, -1); n != 0 {
			t.Errorf("store %d: %d stale lock flags after drain", si, n)
		}
	}
	_ = partial
}

// TestDTSpecRejectsEmptyParticipants pins the redesign fix: the legacy
// helper silently accepted an empty participant set.
func TestDTSpecRejectsEmptyParticipants(t *testing.T) {
	cl := core.NewCluster(1)
	coord := cl.AddNode(core.Config{Name: "coord", LinkGbps: 10})
	_, err := DTSpec{Coordinator: coord, BaseID: 100}.Deploy()
	if err == nil || !strings.Contains(err.Error(), "participant") {
		t.Fatalf("Deploy with no participants: err = %v, want participant error", err)
	}
	if _, err := (DTSpec{Participants: []*core.Node{coord}, BaseID: 100}).Deploy(); err == nil {
		t.Fatal("Deploy with no coordinator: want error")
	}
}

// TestRKVSpecFaultFreeMatchesLegacy guards the passivity promise: a
// spec deployment with no faults and an idle failover monitor behaves
// exactly like the legacy positional helper.
func TestRKVSpecFaultFreeMatchesLegacy(t *testing.T) {
	run := func(useSpec bool) string {
		cl := core.NewCluster(7)
		var nodes []*core.Node
		for i := 0; i < 3; i++ {
			nodes = append(nodes, cl.AddNode(core.Config{
				Name: fmt.Sprintf("kv%d", i), NIC: spec.LiquidIOII_CN2350(), LinkGbps: 10,
			}))
		}
		var dep *rkv.Deployment
		if useSpec {
			d, err := RKVSpec{Common: Common{Placement: NIC}, Nodes: nodes, BaseID: 100, MemLimit: 8 << 20}.Deploy()
			if err != nil {
				t.Fatal(err)
			}
			dep = d.Deployment
		} else {
			d, err := rkv.Deploy(nodes, 100, 8<<20, true)
			if err != nil {
				t.Fatal(err)
			}
			dep = d
		}
		client := workload.NewClient(cl, "cli", 10)
		var log []string
		for i := 0; i < 40; i++ {
			i := uint64(i)
			cl.Eng.At(sim.Time(i)*20*sim.Microsecond, func() {
				k := []byte(fmt.Sprintf("k%d", i%8))
				data := rkv.PutReq(k, []byte{byte(i)})
				if i%3 == 0 {
					data = rkv.GetReq(k)
				}
				client.Send(workload.Request{
					Node: dep.Replicas[0].Node.Name, Dst: dep.LeaderActor(),
					Kind: rkv.KindReq, Data: data, Size: 512, FlowID: i,
					OnResp: func(m actor.Msg) {
						log = append(log, fmt.Sprintf("%d:%v@%v", i, rkv.StatusOf(m.Data), cl.Eng.Now()))
					},
				})
			})
		}
		cl.Eng.Run()
		return strings.Join(log, "\n")
	}
	if a, b := run(true), run(false); a != b {
		t.Fatalf("spec deployment diverges from legacy helper on a fault-free run:\nspec:\n%s\nlegacy:\n%s", a, b)
	}
}

func shardedCluster(t *testing.T, seed uint64, nNodes, shards, reps int) (*core.Cluster, *RKV) {
	t.Helper()
	cl := core.NewCluster(seed)
	var nodes []*core.Node
	for i := 0; i < nNodes; i++ {
		nodes = append(nodes, cl.AddNode(core.Config{
			Name: fmt.Sprintf("kv%d", i), NIC: spec.LiquidIOII_CN2350(), LinkGbps: 10,
		}))
	}
	d, err := RKVSpec{
		Common: Common{Placement: NIC},
		Nodes:  nodes, BaseID: 100, MemLimit: 8 << 20,
		Shards: shards, Replicas: reps,
	}.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	return cl, d
}

// TestRKVShardedLayout pins the scale-out deployment shape: one group
// per shard, leaders rotated onto distinct nodes, disjoint actor IDs,
// and the compatibility surface (embedded Deployment = shard 0).
func TestRKVShardedLayout(t *testing.T) {
	_, d := shardedCluster(t, 1, 8, 4, 3)
	if len(d.Groups) != 4 || d.Deployment != d.Groups[0] {
		t.Fatalf("got %d groups, embedded=%v", len(d.Groups), d.Deployment == d.Groups[0])
	}
	seenLeader := map[string]bool{}
	seenID := map[actor.ID]bool{}
	for g, grp := range d.Groups {
		if len(grp.Replicas) != 3 {
			t.Fatalf("shard %d has %d replicas", g, len(grp.Replicas))
		}
		l := grp.Leader()
		if l == nil {
			t.Fatalf("shard %d has no leader", g)
		}
		if want := fmt.Sprintf("kv%d", g); l.Node.Name != want {
			t.Fatalf("shard %d leads on %s, want %s (rotation)", g, l.Node.Name, want)
		}
		if seenLeader[l.Node.Name] {
			t.Fatalf("two shards lead on %s", l.Node.Name)
		}
		seenLeader[l.Node.Name] = true
		for _, rep := range grp.Replicas {
			for _, a := range []*actor.Actor{rep.Consensus.Actor, rep.Memtable.Actor} {
				if seenID[a.ID] {
					t.Fatalf("actor ID %d reused across groups", a.ID)
				}
				seenID[a.ID] = true
				if !a.Sharded || a.Shard != int32(g) {
					t.Fatalf("actor %d shard tag = (%v, %d), want (true, %d)", a.ID, a.Sharded, a.Shard, g)
				}
			}
		}
	}
}

// TestRKVShardedRouting drives writes and reads through the router:
// every request reaches its key's group leader and commits, and the
// keys actually spread over multiple shards.
func TestRKVShardedRouting(t *testing.T) {
	cl, d := shardedCluster(t, 2, 8, 4, 3)
	client := workload.NewClient(cl, "cli", 10)
	used := map[int]bool{}
	ok, n := 0, 24
	for i := 0; i < n; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*100*sim.Microsecond, func() {
			// Even steps write key-i; the following odd step reads it back,
			// routed by the same key so it reaches the same group.
			key := []byte(fmt.Sprintf("key-%d", i-i%2))
			used[d.ShardFor(key)] = true
			node, leader := d.LeaderFor(key)
			data := rkv.PutReq(key, []byte{byte(i)})
			if i%2 == 1 {
				data = rkv.GetReq(key)
			}
			client.Send(workload.Request{
				Node: node, Dst: leader, Kind: rkv.KindReq, Data: data, Size: 256,
				FlowID: uint64(i),
				OnResp: func(m actor.Msg) {
					if rkv.StatusOf(m.Data) == rkv.StatusOK {
						ok++
					}
				},
			})
		})
	}
	cl.Eng.Run()
	if ok != n {
		t.Fatalf("%d of %d routed requests succeeded", ok, n)
	}
	if len(used) < 2 {
		t.Fatalf("all keys landed on %d shard(s); router not spreading", len(used))
	}
}

// TestRKVShardedFailoverIsolated crashes the node leading shard 0
// (which also follows shards 2 and 3): only shard 0 runs an election;
// every other group's leader is untouched.
func TestRKVShardedFailoverIsolated(t *testing.T) {
	cl := core.NewCluster(3)
	var nodes []*core.Node
	for i := 0; i < 4; i++ {
		nodes = append(nodes, cl.AddNode(core.Config{
			Name: fmt.Sprintf("kv%d", i), NIC: spec.LiquidIOII_CN2350(), LinkGbps: 10,
		}))
	}
	d, err := RKVSpec{
		Common: Common{
			Placement: NIC,
			Faults: fault.Schedule{Faults: []fault.Fault{
				// Down for the whole observed run.
				fault.Crash("kv0", sim.Millisecond, 100*sim.Millisecond),
			}},
		},
		Nodes: nodes, BaseID: 100, MemLimit: 8 << 20,
		Shards: 4, Replicas: 3,
	}.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	cl.Eng.RunUntil(10 * sim.Millisecond)
	if d.Elections != 1 {
		t.Fatalf("%d elections, want exactly 1 (only shard 0 lost its leader)", d.Elections)
	}
	// kv0 keeps a stale IsLeader flag while down (it never observes the
	// higher ballot); what matters is that shard 0's surviving replica
	// took over.
	if !d.Groups[0].Replicas[1].Consensus.IsLeader {
		t.Fatal("shard 0's surviving replica (kv1) did not take over")
	}
	for g := 1; g < 4; g++ {
		l := d.Groups[g].Leader()
		if l == nil || l.Node.Name != fmt.Sprintf("kv%d", g) {
			t.Fatalf("shard %d leader disturbed by kv0's crash: %v", g, l)
		}
	}
}

// TestRKVReshardMovesOneShare removes a shard from the router and
// verifies the consistent-hashing contract at the deployment surface:
// ≈1/N of sampled keys move, all onto surviving groups, and every other
// key keeps its group.
func TestRKVReshardMovesOneShare(t *testing.T) {
	_, d := shardedCluster(t, 4, 8, 8, 2)
	const keys = 4000
	before := make([]int, keys)
	for i := range before {
		before[i] = d.ShardFor([]byte(fmt.Sprintf("key-%d", i)))
	}
	const victim = 5
	d.Reshard(victim)
	moved := 0
	for i := range before {
		after := d.ShardFor([]byte(fmt.Sprintf("key-%d", i)))
		if after == victim {
			t.Fatalf("key %d still routed to removed shard", i)
		}
		if after != before[i] {
			if before[i] != victim {
				t.Fatalf("key %d moved %d→%d though shard %d was removed", i, before[i], after, victim)
			}
			moved++
		}
	}
	if frac := float64(moved) / keys; frac > 1.0/8+0.05 {
		t.Fatalf("reshard moved %.3f of keys, want ≈1/8", frac)
	}
}
