package core

import (
	"sort"

	"repro/internal/actor"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file wires internal/obs into the node runtime. Every layer emits
// its own spans through the node's partition sink (sink 0 on classic
// clusters), so nodes on different PDES partitions never share a span
// buffer; the runtime only registers each node's group and its metrics,
// and adds the migration spans.
//
// Track layout per node (one trace group = one Chrome-trace process),
// in registration order:
//
//	nic core 0..N   sched: one lane per NIC core (actor executions, forwards)
//	sched           sched: instantaneous decisions; core: migration spans
//	traffic mgr     nicsim: the PPS gate's pipeline occupancy
//	accel <name>    nicsim: one lane per accelerator unit
//	dma             pcie: the DMA engine's transfer occupancy
//	host core 0..M  hostsim: one lane per host core
//	link tx/rx      netsim: the node's two link directions

// EnableTracing attaches a tracer to the cluster: every current and
// future node gets a trace group with lanes for its NIC cores, host
// cores, scheduler decisions, device units, and link directions. Call at
// most once, with an enabled tracer; a nil tracer is ignored.
func (c *Cluster) EnableTracing(tr *obs.Tracer) { c.EnableTracingPrefixed(tr, "") }

// EnableTracingPrefixed is EnableTracing with a prefix prepended to
// every group name. The experiment harness uses it to share one tracer
// across the many clusters of a sweep ("r03/srv") without colliding
// node names.
// On a partitioned (PDES) cluster every node emits through its
// partition's obs.Sink — private buffers, merged deterministically at
// export — so tracing stays valid, race-free, and byte-identical at any
// worker count.
func (c *Cluster) EnableTracingPrefixed(tr *obs.Tracer, prefix string) {
	if !tr.Enabled() || c.tracer != nil {
		return
	}
	c.tracer = tr
	c.obsPrefix = prefix
	c.Net.EnableTracing(tr, func(node string) obs.GroupID { return tr.Group(prefix + node) })
	for _, name := range c.nodeNames() {
		c.nodes[name].enableTracing(tr)
	}
}

// EnableMetrics enrolls every current and future node's runtime state
// with the collector: scheduler counters, core-mode split, FCFS tail,
// backlogs, host CPU, and a request-sojourn histogram per node.
func (c *Cluster) EnableMetrics(col *obs.Collector) { c.EnableMetricsPrefixed(col, "") }

// EnableMetricsPrefixed is EnableMetrics with a prefix prepended to
// every registry name (see EnableTracingPrefixed). When both tracing and
// metrics are prefixed they must use the same prefix.
// On a partitioned (PDES) cluster the collector is switched to window
// mode (obs.Collector.AttachGroup): the round coordinator samples at
// conservative-window boundaries instead of scheduling engine events,
// so metrics cannot perturb the window structure or the deterministic
// cross-partition merge.
func (c *Cluster) EnableMetricsPrefixed(col *obs.Collector, prefix string) {
	if col == nil || c.collector != nil {
		return
	}
	c.collector = col
	c.obsPrefix = prefix
	col.AttachGroup(c.Group)
	for _, name := range c.nodeNames() {
		c.nodes[name].enableMetrics(col)
	}
}

// ObsPrefix returns the group-name prefix installed by
// EnableTracingPrefixed / EnableMetricsPrefixed ("" when unprefixed).
// Layers that add their own trace groups (the fault injector) use it to
// stay consistent with the cluster's node groups.
func (c *Cluster) ObsPrefix() string { return c.obsPrefix }

// nodeNames returns node names sorted, so group and track registration
// order — and hence exported trace bytes — never depend on map order.
func (c *Cluster) nodeNames() []string {
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (n *Node) enableTracing(tr *obs.Tracer) {
	g := tr.Group(n.c.obsPrefix + n.Name)
	n.sink = tr.Sink(n.Part)
	if n.Sched != nil {
		n.schedLane = n.Sched.EnableTracing(n.sink, g)
		n.Gate.EnableTracing(n.sink, g)
		n.Accels.EnableTracing(n.sink, g)
		n.DMA.EnableTracing(n.sink, g)
	}
	n.Host.EnableTracing(n.sink, g)
}

func (n *Node) enableMetrics(col *obs.Collector) {
	reg := col.Registry(n.c.obsPrefix + n.Name)
	if s := n.Sched; s != nil {
		reg.Counter("nic_completed", func() uint64 { return s.Completed })
		reg.Counter("nic_forwarded", func() uint64 { return s.Forwarded })
		reg.Counter("downgrades", func() uint64 { return s.Downgrades })
		reg.Counter("upgrades", func() uint64 { return s.Upgrades })
		reg.Counter("push_migrations", func() uint64 { return s.PushMigrations })
		reg.Counter("pull_migrations", func() uint64 { return s.PullMigrations })
		reg.Counter("core_moves", func() uint64 { return s.CoreMoves })
		reg.Gauge("fcfs_tail_us", s.FCFSTail)
		reg.Gauge("fcfs_mean_us", s.FCFSMean)
		reg.Gauge("fcfs_cores", func() float64 { f, _ := s.CoreModes(); return float64(f) })
		reg.Gauge("drr_cores", func() float64 { _, d := s.CoreModes(); return float64(d) })
		reg.Gauge("queue_backlog", func() float64 { return float64(s.QueueBacklog()) })
		reg.Gauge("drr_backlog", func() float64 { return float64(s.DRRBacklog()) })
	}
	reg.Counter("host_completed", func() uint64 { return n.Host.Completed })
	reg.Gauge("host_cores_used", n.Host.CoresUsed)
	reg.Gauge("host_backlog", func() float64 { return float64(n.Host.Backlog()) })
	h := reg.Histogram("sojourn_us")
	if n.Sched != nil {
		n.Sched.Sojourn = h
	}
	n.Host.Sojourn = h
}

// obsMigrateCommit emits the migration's hand-off span on the sched
// lane: start is when the protocol began its node-local phases, the
// end is the commit point — under PDES the window boundary where the
// coordinator applied the table rewrite. The span lands in the node's
// own partition sink, so partitioned traces stay race-free and merge
// byte-identically at any worker count.
func (n *Node) obsMigrateCommit(a *actor.Actor, push bool, start sim.Time, bytes int) {
	if n.sink == nil {
		return
	}
	dir := "migrate→host "
	if !push {
		dir = "migrate→nic "
	}
	n.sink.Span(n.schedLane, dir+a.Label(), start, n.eng.Now(), obs.Args{Bytes: bytes})
}
