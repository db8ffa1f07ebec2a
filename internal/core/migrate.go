package core

import (
	"repro/internal/actor"
	"repro/internal/dmo"
	"repro/internal/sim"
)

// Migration and the window boundary (DESIGN.md §9): the 4-phase
// protocol splits into node-local phases — drain, in-flight execution,
// the DMO move — that run on the owning partition's engine, and one
// cluster-visible *commit* — the actor-table rewrite, the host/NIC
// registration, the buffered-request re-dispatch — that must not race
// the other partitions' table reads. The commit goes through
// sim.Group.DeferBarrier: inline on a classic cluster, at the next
// conservative-window boundary on a partitioned one, where the
// coordinator applies it with no window in flight, in partition order —
// a pure function of the round structure, so results are identical at
// any worker count.

// pushToHost runs the 4-phase NIC→host actor migration of §3.2.5:
//
//	Phase 1 (Prepare): the actor removes itself from the runtime
//	  dispatcher (and the DRR runnable queue); new requests buffer in
//	  the iPipe runtime.
//	Phase 2 (Ready): the actor finishes its in-flight work — for a DRR
//	  actor, every request already in its mailbox.
//	Phase 3 (Gone): the actor's distributed memory objects move to the
//	  host runtime and the host actor starts.
//	Phase 4 (Clean): buffered requests are forwarded to the host with
//	  rewritten destinations.
//
// The scheduler has already set the actor's state to Prepare and is
// holding the migration latch; we release it at the end. The phase-3→4
// hand-off is the commit point: everything before it is partition-local
// and everything at it goes through DeferBarrier (see above).
func (n *Node) pushToHost(a *actor.Actor) {
	chk := n.c.CheckerAt(n.Part)
	chk.MigrateBegin(n.Name, a.Name, true)
	rec := MigrationRecord{Actor: a.Name, Start: n.eng.Now()}
	start := n.eng.Now()

	// Phase 1: state transition, dispatcher and runnable-queue removal,
	// runtime locking. Lightweight (Appendix B.3).
	pending := a.Mailbox.Drain() // in-flight work to finish in phase 2
	p1 := 200 * sim.Microsecond
	n.eng.After(p1, func() {
		rec.Phase[0] = n.eng.Now() - start
		phase2Start := n.eng.Now()

		// Phase 2: execute remaining requests for real so no state is
		// lost, charging their NIC-core service time sequentially.
		var p2 sim.Time
		for _, m := range pending {
			p2 += n.runOnNIC(a, m)
		}
		p2 += 50 * sim.Microsecond // drain barrier on executing cores
		a.State = actor.Ready
		n.eng.After(p2, func() {
			rec.Phase[1] = n.eng.Now() - phase2Start
			phase3Start := n.eng.Now()

			// Phase 3: move the DMOs across PCIe and start the host
			// actor. Cost is dominated by object bytes (Figure 18).
			bytes := n.Objects.MigrateActor(uint32(a.ID), dmo.Host)
			rec.BytesMoved = bytes
			p3 := 300*sim.Microsecond + sim.Time(float64(bytes)/migrationBandwidthGBs)
			n.eng.After(p3, func() {
				rec.Phase[2] = n.eng.Now() - phase3Start
				// Node-local side of the hand-off: the NIC dispatcher
				// forgets the actor; arrivals keep buffering (Gone
				// forwards to the host, where hostUnowned parks them in
				// the mailbox until the commit lands).
				a.State = actor.Gone
				n.Sched.RemoveActor(a.ID)

				n.c.Group.DeferBarrier(n.Part, func() {
					if _, live := n.actors[a.ID]; !live {
						// Killed (watchdog/crash drain) while in flight:
						// don't resurrect it on the host — just release
						// the latch so the node can migrate again.
						chk.MigrateAbort(n.Name, a.Name, true)
						n.Sched.MigrationDone()
						return
					}
					phase4Start := n.eng.Now()
					n.Host.AddActor(a)
					n.c.Table.Set(a.ID, actor.Ref{Node: n.Name, OnNIC: false})

					// Phase 4: forward requests buffered during migration,
					// rewriting their destination to the host runtime.
					buffered := a.Mailbox.Drain()
					rec.Buffered = len(buffered)
					chk.MigrateCommit(n.Name, a.Name, true, bytes, len(buffered))
					n.obsMigrateCommit(a, true, rec.Start, bytes)
					p4 := sim.Time(len(buffered)) * 2 * sim.Microsecond
					n.eng.After(p4, func() {
						rec.Phase[3] = n.eng.Now() - phase4Start
						for _, m := range buffered {
							m.Via = actor.ViaRing
							n.Host.Arrive(m)
						}
						chk.MigrateForward(n.Name, len(buffered))
						a.State = actor.Stable
						n.Migrations = append(n.Migrations, rec)
						n.Sched.MigrationDone()
					})
				})
			})
		})
	})
}

// pullFromHost brings the least-loaded host actor back to the NIC when
// the SmartNIC has spare capacity (§3.2.5). Only the NIC initiates
// migration in either direction. The NIC-side start — Sched.AddActor,
// the table flip, the buffered re-dispatch — is the commit point and
// goes through DeferBarrier, like the push path's phase-3→4 hand-off.
func (n *Node) pullFromHost() bool {
	if n.nicDown || n.down {
		return false
	}
	a := n.Host.LeastLoadedActor()
	if a == nil {
		return false
	}
	chk := n.c.CheckerAt(n.Part)
	chk.MigrateBegin(n.Name, a.Name, false)
	rec := MigrationRecord{Actor: a.Name, Start: n.eng.Now(), Pull: true}
	a.State = actor.Prepare
	n.Host.RemoveActor(a.ID)
	// Host actors run shared-nothing; in-flight messages route through
	// hostUnowned once the table flips. Move objects, then start the
	// NIC actor.
	bytes := n.Objects.MigrateActor(uint32(a.ID), dmo.NIC)
	rec.BytesMoved = bytes
	d := 200*sim.Microsecond + sim.Time(float64(bytes)/migrationBandwidthGBs)
	n.eng.After(d, func() {
		n.c.Group.DeferBarrier(n.Part, func() {
			if _, live := n.actors[a.ID]; !live {
				chk.MigrateAbort(n.Name, a.Name, false)
				n.Sched.MigrationDone()
				return
			}
			if n.nicDown || n.down {
				// The NIC complex died while the objects were in flight
				// (the crash re-homing skips mid-migration actors and
				// leaves them to us): bounce the actor back to the host
				// instead of starting it on dead cores.
				n.Objects.MigrateActor(uint32(a.ID), dmo.Host)
				n.Host.AddActor(a)
				n.c.Table.Set(a.ID, actor.Ref{Node: n.Name, OnNIC: false})
				a.State = actor.Stable
				buffered := a.Mailbox.Drain()
				for _, m := range buffered {
					m.Via = actor.ViaRing
					n.Host.Arrive(m)
				}
				chk.MigrateAbort(n.Name, a.Name, false)
				n.Sched.MigrationDone()
				return
			}
			n.Sched.AddActor(a)
			n.c.Table.Set(a.ID, actor.Ref{Node: n.Name, OnNIC: true})
			rec.Phase[2] = n.eng.Now() - rec.Start // object move + commit wait
			a.State = actor.Stable
			// Requests buffered while the actor was in flight resume on the
			// NIC side.
			buffered := a.Mailbox.Drain()
			rec.Buffered = len(buffered)
			chk.MigrateCommit(n.Name, a.Name, false, bytes, len(buffered))
			n.obsMigrateCommit(a, false, rec.Start, bytes)
			for _, m := range buffered {
				n.Sched.Arrive(m)
			}
			chk.MigrateForward(n.Name, len(buffered))
			n.Migrations = append(n.Migrations, rec)
			n.Sched.MigrationDone()
		})
	})
	return true
}

// MigrateNow forces a push migration outside the scheduler's policy
// (used by the Figure 18 experiment and the migrate-pdes family to
// trigger migrations on demand). It acquires the scheduler's single-
// migration latch — returning false when a policy- or forced migration
// is already in flight, instead of interleaving with it — and refuses
// to run the 4-phase protocol against dead hardware: a crashed node or
// a failed NIC complex defers to the fault-path re-homing (FailNIC).
func (n *Node) MigrateNow(id actor.ID) bool {
	if n.Sched == nil || n.down || n.nicDown {
		return false
	}
	a, ok := n.Sched.Actor(id)
	if !ok || a.State != actor.Stable {
		return false
	}
	if !n.Sched.TryLatchMigration() {
		return false
	}
	a.State = actor.Prepare
	n.pushToHost(a)
	return true
}

// PullNow forces a pull migration of the least-loaded host actor — the
// symmetric forced API to MigrateNow, under the same latch and
// dead-hardware rules. Returns false when no host actor is eligible.
func (n *Node) PullNow() bool {
	if n.Sched == nil || n.down || n.nicDown {
		return false
	}
	if !n.Sched.TryLatchMigration() {
		return false
	}
	if !n.pullFromHost() {
		n.Sched.MigrationDone()
		return false
	}
	return true
}
