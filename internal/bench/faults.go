package bench

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/apps/dt"
	"repro/internal/apps/rkv"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// The faults-* experiment family measures the recovery machinery under
// the deterministic fault injector (internal/fault): request
// availability across crash/restart/loss/overload windows, leader
// failover recovery time, goodput through a network partition, and
// transaction-abort hygiene when a participant dies mid-2PC. None of
// these reproduce a paper figure — the paper's testbed never killed
// nodes — but they certify that the simulated stack degrades and heals
// the way §4's design (Paxos failover, coordinator logs, host fallback)
// promises.

func init() {
	register("faults-availability", "Request completion under the default crash/restart/loss/overload schedule (RKV, 3 replicas)", faultsAvailability)
	register("faults-recovery", "Leader-failover recovery time vs failure-detection delay (RKV)", faultsRecovery)
	register("faults-partition", "Goodput before / during / after a leader partition (RKV)", faultsPartition)
	register("faults-dt", "Transaction outcomes and lock hygiene with a participant crash mid-2PC (DT)", faultsDT)
}

// --- rotating RKV client ----------------------------------------------

// The probe's retry policy is patient enough to ride out a
// multi-millisecond crash window and capped so tail drain stays short:
// a 400µs first timeout, doubled per unanswered attempt up to 1.6ms, for
// at most 10 re-sends.
const (
	probeTimeout    = 400 * sim.Microsecond
	probeRetries    = 10
	probeBackoff    = 2
	probeMaxTimeout = 1600 * sim.Microsecond
)

// rkvProbe drives RKV requests with replica rotation: a timeout or a
// redirect moves the next attempt to the next replica, with capped
// exponential backoff. This is the client-side recovery story —
// workload.Client alone retries the same node forever, which cannot
// survive a node crash.
type rkvProbe struct {
	c     *workload.Client
	nodes []string
	cons  []actor.ID

	issued    uint64
	completed uint64
	gaveUp    uint64
	retries   uint64
	redirects uint64
	// onDone observes each logical completion (issue index, now).
	onDone func(i uint64, isWrite bool)
}

func newRKVProbe(cl *core.Cluster, d *deploy.RKV) *rkvProbe {
	p := &rkvProbe{c: workload.NewClient(cl, "cli", 10)}
	for _, rep := range d.Replicas {
		p.nodes = append(p.nodes, rep.Node.Name)
		p.cons = append(p.cons, rep.Consensus.Actor.ID)
	}
	return p
}

// issue starts one logical request at the given replica.
func (p *rkvProbe) issue(i uint64, data []byte, isWrite bool, target int) {
	p.issued++
	done := new(bool)
	p.attempt(i, data, isWrite, target, 0, probeTimeout, done)
}

func (p *rkvProbe) attempt(i uint64, data []byte, isWrite bool, target, attempt int, timeout sim.Time, done *bool) {
	rotate := func(kind *uint64) {
		if *done {
			return
		}
		if attempt >= probeRetries {
			*done = true
			p.gaveUp++
			return
		}
		*kind++
		p.attempt(i, data, isWrite, (target+1)%len(p.nodes), attempt+1, workload.GrowTimeout(timeout, probeBackoff, probeMaxTimeout), done)
	}
	p.c.Send(workload.Request{
		Node: p.nodes[target], Dst: p.cons[target], Kind: rkv.KindReq,
		Data: data, Size: 512, FlowID: i,
		OnResp: func(resp actor.Msg) {
			if *done {
				return
			}
			switch rkv.StatusOf(resp.Data) {
			case rkv.StatusOK, rkv.StatusNotFound:
				*done = true
				p.completed++
				if p.onDone != nil {
					p.onDone(i, isWrite)
				}
			case rkv.StatusRedirect:
				rotate(&p.redirects)
			}
		},
	})
	if timeout <= 0 {
		return
	}
	p.c.Eng().After(timeout, func() { rotate(&p.retries) })
}

// availability returns the completed fraction in percent.
func (p *rkvProbe) availability() float64 {
	if p.issued == 0 {
		return 0
	}
	return 100 * float64(p.completed) / float64(p.issued)
}

// rkvFaultCluster builds the 3-replica RKV deployment the RKV fault
// experiments share.
func rkvFaultCluster(opts Options, onNIC bool, sched fault.Schedule, failover deploy.FailoverPolicy) (*core.Cluster, *deploy.RKV) {
	cl, nodes := kvNodes(opts, 3, core.Config{NIC: spec.LiquidIOII_CN2350(), LinkGbps: 10})
	d, err := deploy.RKVSpec{
		Common: deploy.Common{
			Placement: deploy.Placement{OnNIC: onNIC},
			Faults:    sched,
		},
		Failover: failover,
		Nodes:    nodes,
		BaseID:   100,
		MemLimit: 8 << 20,
	}.Deploy()
	if err != nil {
		panic(err)
	}
	return cl, d
}

// mix returns the pacing function that issues probe i at replica i mod
// 3: a 64 B write every writeEvery-th probe and reads otherwise, over a
// hot space of keys keys (written in flow order, so reads mostly hit).
func (p *rkvProbe) mix(keys, writeEvery uint64) func(i uint64) {
	return func(i uint64) {
		key := []byte(fmt.Sprintf("k%05d", i%keys))
		if i%writeEvery == 0 {
			p.issue(i, rkv.PutReq(key, make([]byte, 64)), true, int(i)%len(p.nodes))
		} else {
			p.issue(i, rkv.GetReq(key), false, int(i)%len(p.nodes))
		}
	}
}

// --- faults-availability ----------------------------------------------

func faultsAvailability(opts Options) *Result {
	window := 20 * sim.Millisecond
	if opts.Quick {
		window = 8 * sim.Millisecond
	}
	// The default schedule: a follower crash, a leader crash (forcing
	// failover), a lossy-link window on the new leader, then an overload
	// burst — each scaled to the run window.
	sched := func() fault.Schedule {
		w := float64(window)
		at := func(f float64) sim.Time { return sim.Time(w * f) }
		return fault.Schedule{Faults: []fault.Fault{
			fault.Crash("kv2", at(0.15), at(0.10)),
			fault.Crash("kv0", at(0.40), at(0.15)),
			fault.Loss("kv1", at(0.65), at(0.08), 0.25),
			fault.Overload("kv1", at(0.80), at(0.08), 3),
		}}
	}

	type outcome struct {
		probe     *rkvProbe
		elections uint64
		injected  int
		logLines  int
	}
	modes := []bool{true, false} // NIC placement, host placement
	outs := sweepMap(opts, len(modes), func(mi int) outcome {
		cl, d := rkvFaultCluster(opts, modes[mi], sched(), deploy.FailoverPolicy{})
		p := newRKVProbe(cl, d)
		every(cl.Eng, 0, window, 20*sim.Microsecond, p.mix(512, 10))
		cl.Eng.Run()
		return outcome{probe: p, elections: d.Elections, injected: d.Injector.Injected(), logLines: len(d.Injector.Log())}
	})

	r := &Result{header: []string{"placement", "issued", "completed", "avail(%)", "rejected", "gave-up", "retries", "redirects", "elections", "faults"}}
	for mi, onNIC := range modes {
		o := outs[mi]
		placement := "host"
		if onNIC {
			placement = "nic"
		}
		r.add(placement, o.probe.issued, o.probe.completed,
			fmt.Sprintf("%.2f", o.probe.availability()),
			o.probe.c.Rejected, o.probe.gaveUp, o.probe.retries, o.probe.redirects, o.elections, o.injected)
	}
	r.note("schedule: follower crash, leader crash (failover), 25%% loss window, 3x overload burst; %d log lines per run", outs[0].logLines)
	r.note("accounting: avail(%%) = completed/issued; rejected counts edge-shed (admission-denied) requests, which are never in issued — this family runs without admission gates, so it is structurally 0 (see workload.Client accounting contract)")
	r.note("target: >=99%% completion — client-side rotation + backoff must ride out every window")
	return r
}

// --- faults-recovery ---------------------------------------------------

func faultsRecovery(opts Options) *Result {
	window := 12 * sim.Millisecond
	const interval = 10 * sim.Microsecond
	detects := []sim.Time{100 * sim.Microsecond, 200 * sim.Microsecond, 400 * sim.Microsecond}
	if opts.Quick {
		window = 6 * sim.Millisecond
		detects = []sim.Time{200 * sim.Microsecond}
	}
	crashAt := sim.Time(float64(window) * 0.3)
	crashDur := sim.Time(float64(window) * 0.4)

	type outcome struct {
		probe       *rkvProbe
		elections   uint64
		firstOK     sim.Time // first post-crash completion (any op)
		firstWrite  sim.Time // first post-crash write commit
		firstWriteN bool
		firstOKN    bool
	}
	outs := sweepMap(opts, len(detects), func(di int) outcome {
		sched := fault.Schedule{Faults: []fault.Fault{fault.Crash("kv0", crashAt, crashDur)}}
		cl, d := rkvFaultCluster(opts, true, sched, deploy.FailoverPolicy{Detect: detects[di]})
		p := newRKVProbe(cl, d)
		o := outcome{}
		p.onDone = func(i uint64, isWrite bool) {
			if sim.Time(i)*interval < crashAt { // issued before the crash
				return
			}
			now := cl.Eng.Now()
			if !o.firstOKN {
				o.firstOKN, o.firstOK = true, now-crashAt
			}
			if isWrite && !o.firstWriteN {
				o.firstWriteN, o.firstWrite = true, now-crashAt
			}
		}
		// Alternate read/write probes so both recovery edges — local
		// reads on followers and leader-requiring writes — are measured.
		every(cl.Eng, 0, window, interval, p.mix(128, 2))
		cl.Eng.Run()
		o.probe, o.elections = p, d.Elections
		return o
	})

	r := &Result{header: []string{"detect(us)", "first-ok(us)", "first-write-ok(us)", "elections", "avail(%)", "gave-up"}}
	for di, detect := range detects {
		o := outs[di]
		fw := "-"
		if o.firstWriteN {
			fw = fmt.Sprintf("%.1f", o.firstWrite.Micros())
		}
		fo := "-"
		if o.firstOKN {
			fo = fmt.Sprintf("%.1f", o.firstOK.Micros())
		}
		r.add(fmt.Sprintf("%.0f", detect.Micros()), fo, fw, o.elections,
			fmt.Sprintf("%.2f", o.probe.availability()), o.probe.gaveUp)
	}
	r.note("leader kv0 crashes at %.1fms for %.1fms; write recovery tracks detect delay + election round",
		crashAt.Seconds()*1e3, crashDur.Seconds()*1e3)
	return r
}

// --- faults-partition --------------------------------------------------

func faultsPartition(opts Options) *Result {
	window := 15 * sim.Millisecond
	if opts.Quick {
		window = 6 * sim.Millisecond
	}
	w := float64(window)
	cutAt := sim.Time(w * 0.35)
	healAt := sim.Time(w * 0.65)

	type phaseStat struct {
		completed uint64
		writes    uint64
	}
	type outcome struct {
		phases [3]phaseStat
		probe  *rkvProbe
	}
	sched := fault.Schedule{Faults: []fault.Fault{
		// Isolate the leader from replicas AND the client; Paxos
		// keeps its lease semantics simple here — no failover policy,
		// so writes stall until the partition heals.
		fault.Cut(cutAt, healAt-cutAt, "kv0"),
	}}
	cl, d := rkvFaultCluster(opts, true, sched, deploy.FailoverPolicy{Disabled: true})
	p := newRKVProbe(cl, d)
	o := outcome{}
	phaseOf := func(t sim.Time) int {
		switch {
		case t < cutAt:
			return 0
		case t < healAt:
			return 1
		default:
			return 2
		}
	}
	p.onDone = func(i uint64, isWrite bool) {
		ph := phaseOf(cl.Eng.Now())
		o.phases[ph].completed++
		if isWrite {
			o.phases[ph].writes++
		}
	}
	every(cl.Eng, 0, window, 15*sim.Microsecond, p.mix(512, 10))
	cl.Eng.Run()
	o.probe = p

	durs := [3]sim.Time{cutAt, healAt - cutAt, window - healAt}
	names := [3]string{"pre-cut", "partitioned", "healed"}
	r := &Result{header: []string{"phase", "window(ms)", "completed", "goodput(Kops)", "writes-ok"}}
	for ph := range names {
		gp := float64(o.phases[ph].completed) / durs[ph].Seconds() / 1e3
		r.add(names[ph], fmt.Sprintf("%.1f", durs[ph].Seconds()*1e3),
			o.phases[ph].completed, gp, o.phases[ph].writes)
	}
	r.note("leader kv0 cut from replicas and client; reads keep flowing via follower memtables, writes stall until heal")
	r.note("overall availability %.2f%% (gave-up %d of %d)", o.probe.availability(), o.probe.gaveUp, o.probe.issued)
	return r
}

// --- faults-dt ---------------------------------------------------------

func faultsDT(opts Options) *Result {
	window := 15 * sim.Millisecond
	if opts.Quick {
		window = 6 * sim.Millisecond
	}
	w := float64(window)
	crashAt := sim.Time(w * 0.3)
	crashDur := sim.Time(w * 0.25)
	const txnTimeout = sim.Millisecond
	const lockLease = 2 * sim.Millisecond

	type outcome struct {
		sent, committed, aborted, timeoutAborts uint64
		liveLocks, flaggedLocks                 int
		checkpoints                             uint64
	}
	cl := opts.cluster()
	mk := func(name string) *core.Node {
		return cl.AddNode(core.Config{Name: name, NIC: spec.LiquidIOII_CN2350(), LinkGbps: 10})
	}
	coord := mk("coord")
	parts := []*core.Node{mk("part1"), mk("part2"), mk("part3")}
	d, err := deploy.DTSpec{
		Common: deploy.Common{
			Placement: deploy.NIC,
			Faults: fault.Schedule{Faults: []fault.Fault{
				fault.Crash("part1", crashAt, crashDur),
			}},
		},
		Coordinator:  coord,
		Participants: parts,
		BaseID:       100,
		TxnTimeout:   txnTimeout,
		LockLease:    lockLease,
	}.Deploy()
	if err != nil {
		panic(err)
	}
	client := workload.NewClient(cl, "cli", 10)
	var sent uint64
	every(cl.Eng, 0, window, 25*sim.Microsecond, func(i uint64) {
		sent++
		txn := dt.Txn{
			Reads: []dt.Op{
				{Key: []byte(fmt.Sprintf("r%d", i%256))},
				{Key: []byte(fmt.Sprintf("r%d", (i+11)%256))},
			},
			Writes: []dt.Op{{Key: []byte(fmt.Sprintf("w%d", i%128)), Value: make([]byte, 64)}},
		}
		client.Send(workload.Request{
			Node: "coord", Dst: 100, Kind: dt.KindTxn,
			Data: dt.EncodeTxn(txn), Size: 512, FlowID: i,
		})
	})
	cl.Eng.Run()
	o := outcome{
		sent:          sent,
		committed:     d.Coord.Committed,
		aborted:       d.Coord.Aborted,
		timeoutAborts: d.Coord.TimeoutAborts,
		checkpoints:   d.Coord.Checkpoints,
	}
	now := cl.Eng.Now()
	for _, st := range d.Stores {
		o.liveLocks += st.Locks(now, lockLease)
		o.flaggedLocks += st.Locks(0, -1)
	}

	r := &Result{header: []string{"metric", "value"}}
	r.add("txns sent", o.sent)
	r.add("committed", o.committed)
	r.add("aborted", o.aborted)
	r.add("  of which timeout-aborts", o.timeoutAborts)
	r.add("resolved (committed+aborted)", o.committed+o.aborted)
	r.add("live locks at end (lease-aware)", o.liveLocks)
	r.add("stale lock flags at end", o.flaggedLocks)
	r.add("log checkpoints", o.checkpoints)
	r.note("part1 crashes at %.1fms for %.1fms; the coordinator sweep (txn timeout %v) aborts stranded txns, lock leases (%v) expire orphaned locks",
		crashAt.Seconds()*1e3, crashDur.Seconds()*1e3, txnTimeout, lockLease)
	r.note("invariants: every txn resolves, live locks reach zero")
	return r
}
