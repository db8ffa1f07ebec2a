package core

import (
	"repro/internal/invariant"
)

// This file wires internal/invariant into the node runtime, mirroring
// the obs wiring in obs.go: one checker per partition, threaded by
// AddNode into the network fabric and into every node's scheduler,
// message rings, traffic gate, and DMO store.

// AttachCheckers creates one invariant checker per engine partition —
// the granularity conservation must be checked at under PDES, since
// each partition's ledger only sees its own events (cross-partition
// packets are reconciled by the handoff counters) — and AddNode wires
// them into the network fabric and every node. Call before the first
// AddNode (a later call panics): the FIFO and byte-shadow audits must
// see every push/alloc from the start. The fault injector picks the
// checkers up at Install time and stamps a fingerprint epoch at every
// fault activation/restoration. Returns the checkers, in partition
// order.
func (c *Cluster) AttachCheckers() []*invariant.Checker {
	c.beforeFirstNode("AttachCheckers")
	c.checkers = make([]*invariant.Checker, c.Partitions())
	for p := range c.checkers {
		c.checkers[p] = invariant.New(c.Group.Engine(p))
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
