package bench

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The migrate-pdes experiment certifies §3.2.5 migration on a
// partitioned (PDES) cluster: every node force-pushes its actor to the
// host mid-window, fault arms (a crash and a NIC-complex failure) land
// between the migration phases, and after recovery every node pulls its
// actor back to the NIC. The node-local phases run on the owning
// partition's engine; the cluster-visible commit — the actor-table
// rewrite, host/NIC registration, buffered re-dispatch — defers to the
// next conservative-window boundary (sim.Group.DeferBarrier), so the
// copy-on-write actor table stays single-writer and every column is
// byte-identical at any worker count. `make replay-smoke` replays this
// along the PDES axis.

func init() {
	register("migrate-pdes", "Forced push+pull migrations on a partitioned (PDES) mesh with fault arms landing between the migration phases", migratePDES)
}

func migratePDES(opts Options) *Result {
	nodes, parts, window := pdesMeshSize(opts)
	w := float64(window)
	at := func(f float64) sim.Time { return sim.Time(w * f) }
	// Forced pushes land mid-window; the fault arms are timed off the
	// push into specific protocol phases (p1 = 200µs, p3 starts ~250µs
	// in and moves the 256KB region for ~590µs more).
	pushAt, pullAt := at(0.10), at(0.55)

	type outcome struct {
		nodes, parts         int
		sent, answered       uint64
		retried, gaveUp      uint64
		pushOK, pullOK       int
		pushRecs, pullRecs   int
		pushBytes, pullBytes int
		buffered             int
		p50, p99             float64
		injected             int
		rounds, crossed      uint64
	}
	cl, nn, clients := pdesMesh(opts, nodes, parts, true)
	in, err := fault.Install(cl, fault.Schedule{Faults: []fault.Fault{
		// Crash n000 mid phase-3 of its push (object move in flight);
		// the commit still lands — placement survives the crash like
		// durable state — and the node recovers before the pulls.
		fault.Crash("n000", pushAt+320*sim.Microsecond, at(0.10)),
		// Kill n001's NIC complex mid phase-1; re-homing skips the
		// in-flight actor and the push finishes onto the host.
		fault.NICFail("n001", pushAt+100*sim.Microsecond, at(0.10)),
	}})
	if err != nil {
		panic(err)
	}

	gaveUp := make([]uint64, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		c := clients[i]
		dst := (i + 1) % nodes
		every(c.Eng(), 0, window, 10*sim.Microsecond, func(k uint64) {
			gi := i
			c.Send(workload.Request{
				Node: fmt.Sprintf("n%03d", dst), Dst: actor.ID(1 + dst),
				Size: 256, FlowID: uint64(i)<<32 | k,
				Timeout: 100 * sim.Microsecond, Retries: 4, Backoff: 2,
				OnGiveUp: func() { gaveUp[gi]++ },
			})
		})
	}

	// pushOK[i]/pullOK[i] are written only by node i's partition
	// engine (same single-writer discipline as gaveUp).
	pushOK := make([]bool, nodes)
	pullOK := make([]bool, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		nn[i].Eng().At(pushAt, func() { pushOK[i] = nn[i].MigrateNow(actor.ID(1 + i)) })
		nn[i].Eng().At(pullAt, func() { pullOK[i] = nn[i].PullNow() })
	}
	cl.RunUntil(window + sim.Millisecond) // drain room for late retries

	o := outcome{nodes: nodes, parts: parts, injected: in.Injected()}
	lat := stats.NewSample()
	for i, c := range clients { // fixed order: deterministic merge
		o.sent += c.Sent
		o.answered += c.Received
		o.retried += c.Retried
		o.gaveUp += gaveUp[i]
		lat.Merge(c.Lat)
	}
	for i, n := range nn {
		if pushOK[i] {
			o.pushOK++
		}
		if pullOK[i] {
			o.pullOK++
		}
		for _, rec := range n.Migrations {
			if rec.Pull {
				o.pullRecs++
				o.pullBytes += rec.BytesMoved
			} else {
				o.pushRecs++
				o.pushBytes += rec.BytesMoved
			}
			o.buffered += rec.Buffered
		}
	}
	o.p50, o.p99 = lat.Percentile(50), lat.Percentile(99)
	o.rounds, o.crossed = cl.Group.Rounds(), cl.Group.Crossed()

	r := &Result{Header: []string{"metric", "value"}}
	r.Add("nodes x partitions", fmt.Sprintf("%dx%d", o.nodes, o.parts))
	r.Add("requests sent/answered", fmt.Sprintf("%d/%d", o.sent, o.answered))
	r.Add("retried/gave-up", fmt.Sprintf("%d/%d", o.retried, o.gaveUp))
	r.Add("latency p50/p99 (us)", fmt.Sprintf("%.2f/%.2f", o.p50, o.p99))
	r.Add("forced push/pull accepted", fmt.Sprintf("%d/%d", o.pushOK, o.pullOK))
	r.Add("push records (count/bytes)", fmt.Sprintf("%d/%d", o.pushRecs, o.pushBytes))
	r.Add("pull records (count/bytes)", fmt.Sprintf("%d/%d", o.pullRecs, o.pullBytes))
	r.Add("buffered requests forwarded", o.buffered)
	r.Add("faults injected", o.injected)
	r.Add("windows/crossed", fmt.Sprintf("%d/%d", o.rounds, o.crossed))
	r.Note("node-local migration phases run on the owning partition engine; the table/registration commit defers to the next window boundary (DESIGN.md §13)")
	r.Note("arms: crash n000 mid phase-3 (commit lands anyway), NIC-down n001 mid phase-1 (re-homing skips the in-flight actor); a pull whose NIC dies in flight bounces back to the host and records nothing")
	r.Note("pull records carry the direction tag, so both directions are accounted (a pull may be refused while a policy migration holds the latch)")
	return r
}
