package fault

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
)

func testCluster(seed uint64, n int) (*core.Cluster, []*core.Node) {
	cl := core.NewCluster(seed)
	var nodes []*core.Node
	for i := 0; i < n; i++ {
		nodes = append(nodes, cl.AddNode(core.Config{
			Name: fmt.Sprintf("n%d", i), NIC: spec.LiquidIOII_CN2350(), LinkGbps: 10,
		}))
	}
	return cl, nodes
}

func TestValidateRejectsBadFaults(t *testing.T) {
	cl, _ := testCluster(1, 2)
	cases := []struct {
		name string
		f    Fault
		want string
	}{
		{"unknown node", Crash("nope", 0, sim.Millisecond), "unknown"},
		{"zero duration", Crash("n0", 0, 0), "window"},
		{"negative start", Crash("n0", -1, sim.Millisecond), "negative"},
		{"loss rate over 1", Loss("n0", 0, sim.Millisecond, 1.5), "rate"},
		{"loss rate zero", Loss("n0", 0, sim.Millisecond, 0), "rate"},
		{"overload factor", Overload("n0", 0, sim.Millisecond, 0.5), "factor"},
		{"empty partition", Cut(0, sim.Millisecond), "group"},
		{"stall without unit", Stall("n0", "", 0, sim.Millisecond), "unit"},
	}
	for _, c := range cases {
		err := Schedule{Faults: []Fault{c.f}}.validate(cl)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	ok := Schedule{Faults: []Fault{
		Crash("n1", sim.Millisecond, sim.Millisecond),
		Loss("n0", 0, sim.Millisecond, 0.5),
		Cut(0, sim.Millisecond, "n0"),
	}}
	if err := ok.validate(cl); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestCrashWindowDropsAndRestores(t *testing.T) {
	cl, nodes := testCluster(1, 2)
	var handled []sim.Time
	echo := &actor.Actor{ID: 50, OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
		handled = append(handled, ctx.Now())
		return 200 * sim.Nanosecond
	}}
	if err := nodes[0].Register(echo, true, 0); err != nil {
		t.Fatal(err)
	}
	in, err := Install(cl, Schedule{Faults: []Fault{
		Crash("n0", sim.Millisecond, sim.Millisecond),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// One message before, one during, one after the crash window.
	for _, at := range []sim.Time{0, 1500 * sim.Microsecond, 2500 * sim.Microsecond} {
		at := at
		cl.Eng.At(at, func() { nodes[0].Inject(actor.Msg{Kind: 1, Dst: 50}) })
	}
	cl.Eng.Run()
	if len(handled) != 2 {
		t.Fatalf("handled %d messages, want 2 (one dropped mid-crash): %v", len(handled), handled)
	}
	if handled[0] >= sim.Millisecond || handled[1] < 2*sim.Millisecond {
		t.Fatalf("handled at %v, want one pre-crash and one post-restart", handled)
	}
	if nodes[0].Down() {
		t.Fatal("node still down after the window")
	}
	if in.Injected() != 1 || in.Active() != 0 {
		t.Fatalf("Injected=%d Active=%d, want 1/0", in.Injected(), in.Active())
	}
}

// TestFingerprintDeterminism is the byte-determinism contract: the same
// seed and schedule produce the same activation log, bytes for bytes,
// including jittered start times drawn from the engine PRNG.
func TestFingerprintDeterminism(t *testing.T) {
	sched := func() Schedule {
		return Schedule{Faults: []Fault{
			Crash("n0", sim.Millisecond, sim.Millisecond),
			Loss("n1", 500*sim.Microsecond, sim.Millisecond, 0.3),
			Flap("n2", 2*sim.Millisecond, sim.Millisecond, 200*sim.Microsecond),
			Cut(3*sim.Millisecond, sim.Millisecond, "n0", "n1"),
			{kind: nodeCrash, node: "n2", at: 4 * sim.Millisecond, dur: sim.Millisecond,
				Jitter: 300 * sim.Microsecond},
		}}
	}
	run := func(seed uint64) string {
		cl, _ := testCluster(seed, 3)
		in, err := Install(cl, sched())
		if err != nil {
			t.Fatal(err)
		}
		cl.Eng.Run()
		return strings.Join(in.Log(), "\n")
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed, different fault logs:\n%s\n----\n%s", a, b)
	}
	if len(strings.Split(a, "\n")) < 5 {
		t.Fatalf("suspiciously short fault log:\n%s", a)
	}
	// A different seed moves the jittered fault: logs must differ (the
	// jitter draw really comes from the seeded PRNG).
	if c := run(43); a == c {
		t.Fatal("jittered schedule produced identical logs across seeds")
	}
}

func TestLossWindowDropsSomeTraffic(t *testing.T) {
	cl, nodes := testCluster(1, 2)
	var got int
	sink := &actor.Actor{ID: 50, OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
		got++
		return 100 * sim.Nanosecond
	}}
	if err := nodes[1].Register(sink, true, 0); err != nil {
		t.Fatal(err)
	}
	src := &actor.Actor{ID: 40, OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
		ctx.Send(50, actor.Msg{Kind: 1})
		return 100 * sim.Nanosecond
	}}
	if err := nodes[0].Register(src, true, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Install(cl, Schedule{Faults: []Fault{
		Loss("n1", 0, 10*sim.Millisecond, 0.5),
	}}); err != nil {
		t.Fatal(err)
	}
	const sent = 400
	for i := 0; i < sent; i++ {
		at := sim.Time(i) * 20 * sim.Microsecond
		cl.Eng.At(at, func() { nodes[0].Inject(actor.Msg{Kind: 1, Dst: 40}) })
	}
	cl.Eng.Run()
	if got == 0 || got == sent {
		t.Fatalf("received %d/%d with 50%% loss active, want strictly between", got, sent)
	}
}

func TestPartitionSeversOnlyAcrossGroups(t *testing.T) {
	cl, nodes := testCluster(1, 3)
	recv := map[string]int{}
	mkSink := func(n *core.Node, id actor.ID) {
		name := n.Name
		a := &actor.Actor{ID: id, OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			recv[name]++
			return 100 * sim.Nanosecond
		}}
		if err := n.Register(a, true, 0); err != nil {
			t.Fatal(err)
		}
	}
	mkSink(nodes[1], 51) // same side as n0
	mkSink(nodes[2], 52) // other side
	src := &actor.Actor{ID: 40, OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
		ctx.Send(51, actor.Msg{Kind: 1})
		ctx.Send(52, actor.Msg{Kind: 1})
		return 100 * sim.Nanosecond
	}}
	if err := nodes[0].Register(src, true, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Install(cl, Schedule{Faults: []Fault{
		Cut(0, 10*sim.Millisecond, "n0", "n1"),
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		at := sim.Time(i) * 100 * sim.Microsecond
		cl.Eng.At(at, func() { nodes[0].Inject(actor.Msg{Kind: 1, Dst: 40}) })
	}
	cl.Eng.Run()
	if recv["n1"] != 20 {
		t.Fatalf("intra-group traffic n0→n1 = %d/20, partition must keep the group connected", recv["n1"])
	}
	if recv["n2"] != 0 {
		t.Fatalf("cross-group traffic n0→n2 = %d, want 0 while partitioned", recv["n2"])
	}
}

// TestInstallRejectsPastStart pins the past-start contract: scheduling a
// fault behind the engine clock used to reach sim.At and panic with the
// engine's "event in the past" failure; Validate now catches it and
// Install returns a typed *scheduleError identifying the fault.
func TestInstallRejectsPastStart(t *testing.T) {
	cl, _ := testCluster(9, 2)
	cl.Eng.At(2*sim.Millisecond, func() {})
	cl.Eng.Run() // advance the clock to 2ms
	_, err := Install(cl, Schedule{Faults: []Fault{
		Crash("n1", 0, sim.Millisecond),
		Crash("n0", sim.Millisecond, sim.Millisecond),
	}})
	if err == nil {
		t.Fatal("past-start schedule installed without error")
	}
	var se *scheduleError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T %v, want *scheduleError", err, err)
	}
	if se.index != 0 || !strings.Contains(se.reason, "past") {
		t.Fatalf("scheduleError = %+v, want Index 0 with a past-start reason", se)
	}
	// A schedule entirely at/after the clock is fine.
	if _, err := Install(cl, Schedule{Faults: []Fault{
		Crash("n0", 2*sim.Millisecond, sim.Millisecond),
	}}); err != nil {
		t.Fatalf("future schedule on an advanced engine rejected: %v", err)
	}
}

// partCluster builds a partitioned (PDES) cluster with one echo actor
// per node (ID 100+i, NIC-resident) and a self-ticking source on node 0
// that sprays every other node, so fault windows have cross-partition
// traffic to perturb.
func partCluster(t *testing.T, seed uint64, n, parts int) (*core.Cluster, []*core.Node, []int) {
	t.Helper()
	cl := core.NewPartitionedCluster(seed, parts)
	recv := make([]int, n) // recv[i] written only by node i's partition
	var nodes []*core.Node
	for i := 0; i < n; i++ {
		node := cl.AddNode(core.Config{
			Name: fmt.Sprintf("n%d", i), NIC: spec.LiquidIOII_CN2350(),
			LinkGbps: 10, DisableMigration: true,
		})
		i := i
		a := &actor.Actor{ID: actor.ID(100 + i), PinNIC: true,
			OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
				recv[i]++
				return 200 * sim.Nanosecond
			}}
		if err := node.Register(a, true, 0); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	return cl, nodes, recv
}

// sprayAll keeps every node busy: each node's own partition engine
// injects a message to its echo actor every step for the whole window,
// so fault windows always overlap live per-partition work.
func sprayAll(cl *core.Cluster, nodes []*core.Node, dur, step sim.Time) {
	for i, node := range nodes {
		i, node := i, node
		e := cl.Group.Engine(node.Part)
		for at := sim.Time(0); at < dur; at += step {
			e.At(at, func() { node.Inject(actor.Msg{Kind: 1, Dst: actor.ID(100 + i)}) })
		}
	}
}

// fullSchedule exercises every arm class: three barrier arms (crash,
// loss, partition cut, flap) and three partition-local arms (overload,
// accel stall, NIC-down), one of them jittered.
func fullSchedule() Schedule {
	return Schedule{Faults: []Fault{
		Crash("n0", sim.Millisecond, sim.Millisecond),
		Loss("n3", 500*sim.Microsecond, sim.Millisecond, 0.5),
		Flap("n4", 2*sim.Millisecond, sim.Millisecond, 400*sim.Microsecond),
		Cut(3*sim.Millisecond, sim.Millisecond, "n0", "n1"),
		Overload("n2", 500*sim.Microsecond, sim.Millisecond, 2.5),
		Stall("n5", "CRC", sim.Millisecond, sim.Millisecond),
		NICFail("n1", sim.Millisecond, sim.Millisecond),
		{kind: nodeCrash, node: "n2", at: 4 * sim.Millisecond, dur: sim.Millisecond,
			Jitter: 300 * sim.Microsecond},
	}}
}

// TestClassicDriveStyleEquivalence: a classic cluster (core.NewCluster
// is NewPartitionedCluster(seed, 1), which partCluster builds) is a
// 1-partition group whose barrier arms are ordinary engine events, so
// the full arm matrix produces the same activation log whether the
// cluster is driven through the engine (cl.Eng.Run, the way most
// classic call sites do) or through the group (cl.RunUntil).
func TestClassicDriveStyleEquivalence(t *testing.T) {
	run := func(drive func(*core.Cluster)) string {
		cl, nodes, _ := partCluster(t, 31, 6, 1)
		in, err := Install(cl, fullSchedule())
		if err != nil {
			t.Fatal(err)
		}
		sprayAll(cl, nodes, 6*sim.Millisecond, 50*sim.Microsecond)
		drive(cl)
		if in.Injected() != 8 || in.Active() != 0 {
			t.Fatalf("injected %d, active %d; want 8 and 0:\n%s", in.Injected(), in.Active(), strings.Join(in.Log(), "\n"))
		}
		return strings.Join(in.Log(), "\n")
	}
	viaEngine := run(func(cl *core.Cluster) { cl.Eng.Run() })
	viaGroup := run(func(cl *core.Cluster) { cl.RunUntil(8 * sim.Millisecond) })
	if viaEngine != viaGroup {
		t.Fatalf("fault log depends on how the classic cluster is driven:\n%s\n----\n%s", viaEngine, viaGroup)
	}
}

// TestInstallOnPartitionedCluster is the tentpole contract: Install no
// longer rejects partitioned clusters; every arm class activates and
// restores, and the run completes with no active windows left.
func TestInstallOnPartitionedCluster(t *testing.T) {
	cl, nodes, _ := partCluster(t, 11, 6, 3)
	cl.SetPDESWorkers(3)
	in, err := Install(cl, fullSchedule())
	if err != nil {
		t.Fatalf("Install on a partitioned cluster: %v", err)
	}
	sprayAll(cl, nodes, 6*sim.Millisecond, 50*sim.Microsecond)
	cl.RunUntil(8 * sim.Millisecond)
	if got := in.Injected(); got != 8 {
		t.Fatalf("Injected = %d, want all 8 faults activated:\n%s", got, strings.Join(in.Log(), "\n"))
	}
	if in.Active() != 0 {
		t.Fatalf("Active = %d after all windows closed, want 0", in.Active())
	}
	for _, n := range nodes {
		if n.Down() {
			t.Fatalf("node %s still down after its window", n.Name)
		}
	}
}

// TestPartitionedFingerprintAcrossWorkers is the tentpole determinism
// property: a faulted partitioned run — jittered schedule, live
// cross-partition traffic — produces byte-identical activation logs and
// delivery counts at 1, 2, and 4 workers.
func TestPartitionedFingerprintAcrossWorkers(t *testing.T) {
	run := func(workers int) (string, string) {
		cl, nodes, recv := partCluster(t, 21, 8, 4)
		cl.SetPDESWorkers(workers)
		in, err := Install(cl, fullSchedule())
		if err != nil {
			t.Fatal(err)
		}
		sprayAll(cl, nodes, 6*sim.Millisecond, 20*sim.Microsecond)
		cl.RunUntil(8 * sim.Millisecond)
		var counts []string
		for i, n := range nodes {
			counts = append(counts, fmt.Sprintf("%s=%d", n.Name, recv[i]))
		}
		return strings.Join(in.Log(), "\n"), strings.Join(counts, " ")
	}
	fp1, rc1 := run(1)
	if !strings.Contains(fp1, "+crash n0") || !strings.Contains(fp1, "-nic-down n1") {
		t.Fatalf("fingerprint missing expected arms:\n%s", fp1)
	}
	for _, w := range []int{2, 4} {
		fpN, rcN := run(w)
		if fpN != fp1 {
			t.Fatalf("fault log diverged at %d workers:\n%s\n----\n%s", w, fp1, fpN)
		}
		if rcN != rc1 {
			t.Fatalf("delivery counts diverged at %d workers:\n%s\n----\n%s", w, rc1, rcN)
		}
	}
}

// TestPartitionedCrashDropsTraffic: behavioral check that a barrier-arm
// crash window really drops in-window traffic on a partitioned cluster
// and the node serves again after restart.
func TestPartitionedCrashDropsTraffic(t *testing.T) {
	cl, nodes, recv := partCluster(t, 5, 2, 2)
	cl.SetPDESWorkers(2)
	if _, err := Install(cl, Schedule{Faults: []Fault{
		Crash("n1", sim.Millisecond, sim.Millisecond),
	}}); err != nil {
		t.Fatal(err)
	}
	// Poke n1 before, during, and after its crash window, from n1's own
	// partition engine.
	e := cl.Group.Engine(nodes[1].Part)
	for _, at := range []sim.Time{0, 1500 * sim.Microsecond, 2500 * sim.Microsecond} {
		at := at
		e.At(at, func() { nodes[1].Inject(actor.Msg{Kind: 1, Dst: 101}) })
	}
	cl.RunUntil(4 * sim.Millisecond)
	if got := recv[1]; got != 2 {
		t.Fatalf("n1 handled %d messages, want 2 (one dropped mid-crash)", got)
	}
	if nodes[1].Down() {
		t.Fatal("n1 still down after the window")
	}
}
