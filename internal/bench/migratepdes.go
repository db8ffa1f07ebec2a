package bench

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/sim"
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
	gaveUp := ringDrive(clients, window)

	// pushOK[i]/pullOK[i] are written only by node i's partition
	// engine (same single-writer discipline as gaveUp).
	pushOK := make([]bool, nodes)
	pullOK := make([]bool, nodes)
	for i, n := range nn {
		n.Eng().At(pushAt, func() { pushOK[i] = n.MigrateNow(actor.ID(1 + i)) })
		n.Eng().At(pullAt, func() { pullOK[i] = n.PullNow() })
	}
	cl.RunUntil(window + sim.Millisecond) // drain room for late retries
	s := mesh.Summarize(clients)

	var pushes, pulls, pushRecs, pullRecs, pushBytes, pullBytes, buffered int
	for i, n := range nn {
		if pushOK[i] {
			pushes++
		}
		if pullOK[i] {
			pulls++
		}
		for _, rec := range n.Migrations {
			if rec.Pull {
				pullRecs++
				pullBytes += rec.BytesMoved
			} else {
				pushRecs++
				pushBytes += rec.BytesMoved
			}
			buffered += rec.Buffered
		}
	}

	r := &Result{Header: []string{"metric", "value"}}
	meshRows(r, nodes, parts, s.Sent, s.Received)
	r.Add("retried/gave-up", fmt.Sprintf("%d/%d", s.Retried, sumOf(gaveUp)))
	latencyRow(r, s.P50us, s.P99us)
	r.Add("forced push/pull accepted", fmt.Sprintf("%d/%d", pushes, pulls))
	r.Add("push records (count/bytes)", fmt.Sprintf("%d/%d", pushRecs, pushBytes))
	r.Add("pull records (count/bytes)", fmt.Sprintf("%d/%d", pullRecs, pullBytes))
	r.Add("buffered requests forwarded", buffered)
	r.Add("faults injected", in.Injected())
	windowsRow(r, cl)
	r.Note("node-local migration phases run on the owning partition engine; the table/registration commit defers to the next window boundary (DESIGN.md §9)")
	r.Note("arms: crash n000 mid phase-3 (commit lands anyway), NIC-down n001 mid phase-1 (re-homing skips the in-flight actor); a pull whose NIC dies in flight bounces back to the host and records nothing")
	r.Note("pull records carry the direction tag, so both directions are accounted (a pull may be refused while a policy migration holds the latch)")
	return r
}
