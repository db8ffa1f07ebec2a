package qos

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Runtime is an installed Tenancy: one LaneSched per offloaded node,
// one admission gate per bound client edge, and (on classic clusters)
// the SLO controller. Deploy specs install it via deploy.Common; tests
// and benches can also call Install directly.
type Runtime struct {
	tenancy *Tenancy
	// lanes holds one lane scheduler per offloaded node, in install
	// order.
	lanes []*laneSched
	// Controller is the SLO loop (nil unless Tenancy.Controller.Enabled).
	Controller *Controller

	cl    *core.Cluster
	gates []*gate
}

// Install validates t and wires it into the cluster: every offloaded
// node in nodes gets a strict-priority LaneSched between traffic-gate
// admission and the actor scheduler, and — when the controller is
// enabled — the SLO loop starts on the cluster engine. A nil Tenancy
// installs nothing and returns (nil, nil): the legacy single-tenant
// path stays byte-for-byte untouched.
//
// The controller requires a classic cluster; lanes and admission are
// per-node/per-client state on the owning partition engine, so they
// work (and stay fingerprint-deterministic) under PDES.
func Install(cl *core.Cluster, nodes []*core.Node, t *Tenancy) (*Runtime, error) {
	if t == nil {
		return nil, nil
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if t.Controller.Enabled && cl.Partitions() > 1 {
		return nil, &configError{field: "Controller.Enabled",
			reason: "the SLO controller reads cross-node state and requires a classic (single-partition) cluster"}
	}
	rt := &Runtime{tenancy: t, cl: cl}
	tr := cl.Tracer()
	var scheds []*sched.Scheduler
	for _, n := range nodes {
		if n == nil || !n.Offloaded() {
			continue
		}
		ls := newLaneSched(n.Eng(), t.Lanes, n.Name, n.Sched.Arrive, cl.CheckerAt(n.Part),
			tr.Sink(n.Part), tr.Group(cl.ObsPrefix()+n.Name), registry(cl, n.Name+"-qos"))
		n.SetLaneDispatcher(ls)
		rt.lanes = append(rt.lanes, ls)
		scheds = append(scheds, n.Sched)
	}
	if t.Controller.Enabled {
		rt.Controller = newController(cl.Eng, t.Controller, t.Tenants, scheds, registry(cl, "qos-controller"))
		rt.Controller.start()
	}
	return rt, nil
}

// registry returns the cluster collector's registry for name, under the
// cluster's group prefix; nil when metrics are off.
func registry(cl *core.Cluster, name string) *obs.Registry {
	col := cl.Collector()
	if col == nil {
		return nil
	}
	return col.Registry(cl.ObsPrefix() + name)
}

// Bind attaches per-tenant admission control to one client edge: the
// client consults a fresh gate (living on the client's partition, so
// PDES runs race-freely) before sending, and feeds response latencies
// back into the SLO controller. The Runtime keeps the gate: OfferedTo
// and its siblings sum every gate's counters. Nil-safe: a nil Runtime
// binds nothing.
func (rt *Runtime) Bind(c *workload.Client) {
	if rt == nil || c == nil {
		return
	}
	g := newGate(rt.tenancy.Tenants, rt.cl.CheckerAt(c.Part()), rt.Controller, registry(rt.cl, c.Name+"-adm"))
	c.SetQoS(g)
	rt.gates = append(rt.gates, g)
}

// BindBatcher hands a batching window to the controller (no-op without
// a controller).
func (rt *Runtime) BindBatcher(b *workload.Batcher) {
	if rt != nil && rt.Controller != nil {
		rt.Controller.bindBatcher(b)
	}
}

// BindReshard hands the controller the shard scale-out knob (no-op
// without a controller).
func (rt *Runtime) BindReshard(hottest func() int, reshard func(int)) {
	if rt != nil && rt.Controller != nil {
		rt.Controller.bindReshard(hottest, reshard)
	}
}

// tenantCount sums one per-gate counter slice across all bound gates.
func (rt *Runtime) tenantCount(pick func(*gate) []uint64, tenant int) uint64 {
	if rt == nil {
		return 0
	}
	var sum uint64
	for _, g := range rt.gates {
		s := pick(g)
		if tenant < len(s) {
			sum += s[tenant]
		}
	}
	return sum
}

// OfferedTo returns total requests offered by the tenant across all
// bound clients.
func (rt *Runtime) OfferedTo(tenant int) uint64 {
	return rt.tenantCount(func(g *gate) []uint64 { return g.offered }, tenant)
}

// AdmittedTo returns total requests admitted for the tenant.
func (rt *Runtime) AdmittedTo(tenant int) uint64 {
	return rt.tenantCount(func(g *gate) []uint64 { return g.admitted }, tenant)
}

// RejectedTo returns total requests rejected for the tenant.
func (rt *Runtime) RejectedTo(tenant int) uint64 {
	return rt.tenantCount(func(g *gate) []uint64 { return g.rejected }, tenant)
}

// LaneTotals sums the per-lane enqueue/deliver/shed counters across all
// node lane schedulers, plus data-lane backpressure deferrals.
func (rt *Runtime) LaneTotals() (enq, del, shed [NumLanes]uint64, backpressured uint64) {
	if rt == nil {
		return
	}
	for _, ls := range rt.lanes {
		for l := Lane(0); l < NumLanes; l++ {
			enq[l] += ls.enqueued[l]
			del[l] += ls.delivered[l]
			shed[l] += ls.shed[l]
		}
		backpressured += ls.backpressured
	}
	return
}
