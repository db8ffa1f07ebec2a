package qos

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Runtime is an installed Tenancy: one LaneSched per offloaded node,
// one admission Gate per bound client edge, and (on classic clusters)
// the SLO controller. Deploy specs install it via deploy.Common; tests
// and benches can also call Install directly.
type Runtime struct {
	Tenancy *Tenancy
	// Lanes holds one lane scheduler per offloaded node, in install
	// order.
	Lanes []*LaneSched
	// Controller is the SLO loop (nil unless Tenancy.Controller.Enabled).
	Controller *Controller

	cl    *core.Cluster
	gates []*Gate
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
		return nil, &configError{Field: "Controller.Enabled",
			Reason: "the SLO controller reads cross-node state and requires a classic (single-partition) cluster"}
	}
	rt := &Runtime{Tenancy: t, cl: cl}
	tr := cl.Tracer()
	var scheds []*sched.Scheduler
	for _, n := range nodes {
		if n == nil || !n.Offloaded() {
			continue
		}
		ls := newLaneSched(n.Eng(), t.Lanes, n.Name, n.Sched.Arrive, cl.CheckerAt(n.Part),
			tr.Sink(n.Part), tr.Group(cl.ObsPrefix()+n.Name), registry(cl, n.Name+"-qos"))
		n.SetLaneDispatcher(ls)
		rt.Lanes = append(rt.Lanes, ls)
		scheds = append(scheds, n.Sched)
	}
	if t.Controller.Enabled {
		rt.Controller = newController(cl.Eng, t.Controller, t.Tenants, registry(cl, "qos-controller"))
		for _, s := range scheds {
			rt.Controller.BindScheduler(s)
		}
		rt.Controller.Start()
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
// client consults a fresh Gate (living on the client's partition, so
// PDES runs race-freely) before sending, and feeds response latencies
// back into the SLO controller. Nil-safe: a nil Runtime binds nothing.
func (rt *Runtime) Bind(c *workload.Client) *Gate {
	if rt == nil || c == nil {
		return nil
	}
	g := newGate(rt.Tenancy.Tenants, rt.cl.CheckerAt(c.Part()), rt.Controller, registry(rt.cl, c.Name+"-adm"))
	c.SetQoS(g)
	rt.gates = append(rt.gates, g)
	return g
}

// BindBatcher hands a batching window to the controller (no-op without
// a controller).
func (rt *Runtime) BindBatcher(b *workload.Batcher) {
	if rt != nil && rt.Controller != nil {
		rt.Controller.BindBatcher(b)
	}
}

// BindReshard hands the controller the shard scale-out knob (no-op
// without a controller).
func (rt *Runtime) BindReshard(hottest func() int, reshard func(int)) {
	if rt != nil && rt.Controller != nil {
		rt.Controller.BindReshard(hottest, reshard)
	}
}

// tenantCount sums one per-gate counter slice across all bound gates.
func (rt *Runtime) tenantCount(pick func(*Gate) []uint64, tenant int) uint64 {
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
	return rt.tenantCount(func(g *Gate) []uint64 { return g.Offered }, tenant)
}

// AdmittedTo returns total requests admitted for the tenant.
func (rt *Runtime) AdmittedTo(tenant int) uint64 {
	return rt.tenantCount(func(g *Gate) []uint64 { return g.Admitted }, tenant)
}

// RejectedTo returns total requests rejected for the tenant.
func (rt *Runtime) RejectedTo(tenant int) uint64 {
	return rt.tenantCount(func(g *Gate) []uint64 { return g.Rejected }, tenant)
}

// LaneTotals sums the per-lane enqueue/deliver/shed counters across all
// node lane schedulers, plus data-lane backpressure deferrals.
func (rt *Runtime) LaneTotals() (enq, del, shed [NumLanes]uint64, backpressured uint64) {
	if rt == nil {
		return
	}
	for _, ls := range rt.Lanes {
		for l := Lane(0); l < NumLanes; l++ {
			enq[l] += ls.Enqueued[l]
			del[l] += ls.Delivered[l]
			shed[l] += ls.Shed[l]
		}
		backpressured += ls.Backpressured
	}
	return
}
