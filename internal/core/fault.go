package core

import (
	"sort"

	"repro/internal/actor"
	"repro/internal/dmo"
)

// This file is the runtime side of failure injection (internal/fault
// schedules the events; the mechanisms live here):
//
//   - Fail/Recover crash and restart a whole node. While down, the node
//     drops arriving traffic and drains queued work without executing
//     handlers — no state mutates, no reply leaves. Actor state (DMO
//     regions, Paxos logs, stores) survives the restart, modeling the
//     battery-backed/persistent memory a production deployment would
//     use; recovery correctness then rests on the protocols (ballot
//     checks, lock leases, client retries), which is what the fault
//     experiments drive.
//   - FailNIC/RecoverNIC kill only the SmartNIC processing complex: the
//     scheduler's actors re-home to the host (the §3.2.5 migration
//     machinery, minus the dead NIC cores' cooperation) and ingress
//     falls back to the host path until the NIC returns.
//   - SetNICSlowdown dilates NIC-core service times, modeling an
//     overload burst or thermal throttle.
//
// Cluster.OnMembership lets deployment layers (leader failover, txn
// sweepers) observe crash/recovery transitions.

// OnMembership registers a listener invoked whenever a node crashes
// (down=true) or recovers (down=false). Listeners run synchronously in
// registration order; they model the deployment's failure detector, so
// reactions should be scheduled After a detection delay, not taken
// instantly.
func (c *Cluster) OnMembership(fn func(node string, down bool)) {
	c.onMembership = append(c.onMembership, fn)
}

func (c *Cluster) notifyMembership(node string, down bool) {
	for _, fn := range c.onMembership {
		fn(node, down)
	}
}

// Cluster returns the cluster this node belongs to.
func (n *Node) Cluster() *Cluster { return n.c }

// Down reports whether the node is currently crashed.
func (n *Node) Down() bool { return n.down }

// Fail crashes the node: all traffic addressed to it drops, queued work
// drains without executing, and in-flight responses it already emitted
// still propagate (they left the wire before the crash). Idempotent.
func (n *Node) Fail() {
	if n.down {
		return
	}
	n.down = true
	n.c.notifyMembership(n.Name, true)
}

// Recover restarts a crashed node with its durable actor state intact.
// Idempotent.
func (n *Node) Recover() {
	if !n.down {
		return
	}
	n.down = false
	n.c.notifyMembership(n.Name, false)
}

// SetNICSlowdown dilates NIC-core service times by factor (> 1); a
// factor ≤ 1 restores normal speed. No-op on baseline nodes.
func (n *Node) SetNICSlowdown(factor float64) {
	if factor <= 1 {
		n.nicSlowdown = 0
		return
	}
	n.nicSlowdown = factor
}

// FailNIC kills the SmartNIC processing complex alone: every NIC-resident
// actor re-homes to the host (state moves over PCIe via the DMO store, as
// a crash-triggered variant of the §3.2.5 push migration), and ingress
// traffic takes the host path until RecoverNIC. Baseline nodes and
// already-failed NICs are no-ops.
func (n *Node) FailNIC() {
	if n.Sched == nil || n.nicDown {
		return
	}
	n.nicDown = true
	// The re-homing is a cluster-visible placement change, so it runs at
	// a commit point like any migration commit (migrate.go): inline on a
	// classic cluster, at the next window boundary on a partitioned one.
	// Eligibility is evaluated at commit time — an actor whose deferred
	// migration commit landed first is already host-resident, and one
	// still mid-flight is left to the migration machinery: a push commit
	// lands it on the host anyway, and a pull commit sees nicDown and
	// bounces it back (pullFromHost's dead-hardware guard).
	n.c.Group.DeferBarrier(n.Part, func() {
		// Deterministic re-homing order: sorted actor IDs, never map order.
		ids := make([]actor.ID, 0, len(n.actors))
		for id := range n.actors {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			ref, ok := n.c.Table.Lookup(id)
			if !ok || ref.Node != n.Name || !ref.OnNIC {
				continue
			}
			a := n.actors[id]
			if a.State.InFlight() {
				continue
			}
			n.Sched.RemoveActor(id)
			n.Objects.MigrateActor(uint32(id), dmo.Host)
			n.Host.AddActor(a)
			n.c.Table.Set(id, actor.Ref{Node: n.Name, OnNIC: false})
			for _, m := range a.Mailbox.Drain() {
				m.Via = actor.ViaRing
				n.Host.Arrive(m)
			}
		}
	})
}

// RecoverNIC brings the SmartNIC complex back. Re-homed actors stay on
// the host; the scheduler's pull-migration policy moves them back when
// it sees spare NIC capacity, exactly as for any other host actor.
func (n *Node) RecoverNIC() {
	n.nicDown = false
}

// Inject delivers a message directly into the node's runtime, as a
// co-located control plane (an operator console, a failure detector)
// would. The message routes to whichever side currently owns the
// destination actor; a crashed node drops it.
func (n *Node) Inject(m actor.Msg) {
	if n.down {
		return
	}
	ref, ok := n.c.Table.Lookup(m.Dst)
	if !ok || ref.Node != n.Name {
		n.Dropped++
		return
	}
	m.Via = actor.ViaLocal
	if ref.OnNIC && n.Sched != nil && !n.nicDown {
		n.Sched.Arrive(m)
		return
	}
	n.Host.Arrive(m)
}
