package core

import (
	"repro/internal/invariant"
)

// This file wires internal/invariant into the node runtime, mirroring
// the obs wiring in obs.go: one checker per partition, threaded into
// the network fabric and into every current and future node's
// scheduler, message rings, traffic gate, and DMO store.

// AttachCheckers creates and wires one invariant checker per engine
// partition — the granularity conservation must be checked at under
// PDES, since each partition's ledger only sees its own events (cross-
// partition packets are reconciled by the handoff counters) — into the
// network fabric and every current node; AddNode covers future ones.
// Call before the engine runs (the FIFO and byte-shadow audits must see
// every push/alloc from the start). The fault injector picks the
// checkers up at Install time and stamps a fingerprint epoch at every
// fault activation/restoration. Returns the checkers, in partition
// order; idempotent.
func (c *Cluster) AttachCheckers() []*invariant.Checker {
	if len(c.checkers) > 0 {
		return c.checkers
	}
	c.checkers = make([]*invariant.Checker, c.Partitions())
	for p := range c.checkers {
		c.checkers[p] = invariant.New(c.Group.Engine(p))
		c.Net.EnableInvariantsAt(p, c.checkers[p])
	}
	for _, name := range c.nodeNames() {
		n := c.nodes[name]
		n.enableInvariants(c.checkers[n.Part])
	}
	return c.checkers
}

// Checker returns the cluster's (partition 0's) invariant checker; nil
// when checking is disabled — the nil receiver is the no-op state.
func (c *Cluster) Checker() *invariant.Checker { return c.CheckerAt(0) }

// CheckerAt returns the invariant checker owning partition part; nil
// when checking is disabled — the nil receiver is the no-op state.
func (c *Cluster) CheckerAt(part int) *invariant.Checker {
	if part >= 0 && part < len(c.checkers) {
		return c.checkers[part]
	}
	return nil
}

// Checkers returns the attached checkers in partition order (length 1
// on classic clusters; nil when checking is disabled). Cluster-wide
// fault arms epoch every partition's ledger at the barrier time, and
// the replay harness reconciles their handoff counters cross-partition
// (invariant.CrossCheckHandoffs).
func (c *Cluster) Checkers() []*invariant.Checker { return c.checkers }

func (n *Node) enableInvariants(chk *invariant.Checker) {
	n.chk = chk
	if n.Sched != nil {
		n.Sched.EnableInvariants(chk, n.Name)
	}
	if n.Chan != nil {
		n.Chan.EnableInvariants(chk, n.Name)
	}
	if n.Gate != nil {
		n.Gate.EnableInvariants(chk)
	}
	n.Objects.EnableInvariants(chk, n.Name)
}
