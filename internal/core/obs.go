package core

import (
	"fmt"

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
// Observation is attached to the cluster before its first node, and
// AddNode wires each node's layers with one attach call per layer
// (Node.observe); the network is wired once, with the first node. So
// no code walks existing nodes, and group and track numbering follow
// AddNode order.
//
// Track layout per node (one trace group = one Chrome-trace process),
// in registration order:
//
//	link tx/rx      netsim: the node's two link directions (and, on a
//	                partitioned cluster, its xpart handoff lane)
//	nic core 0..N   sched: one lane per NIC core (actor executions, forwards)
//	sched           sched: instantaneous decisions; core: migration spans
//	traffic mgr     nicsim: the PPS gate's pipeline occupancy
//	accel <name>    nicsim: one lane per accelerator unit
//	dma             pcie: the DMA engine's transfer occupancy
//	host core 0..M  hostsim: one lane per host core

// EnableTracing attaches a tracer to the cluster: every node gets a
// trace group with lanes for its link directions, NIC cores, host
// cores, scheduler decisions and device units. Call before the first
// AddNode (a later call panics); a nil tracer leaves tracing off.
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
	c.beforeFirstNode("EnableTracing")
	if tr.Enabled() {
		c.tracer, c.obsPrefix = tr, prefix
	}
}

// EnableMetrics enrolls every node's runtime state with the collector:
// scheduler counters, core-mode split, FCFS tail, backlogs, host CPU,
// and a request-sojourn histogram per node. Call before the first
// AddNode (a later call panics).
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
	c.beforeFirstNode("EnableMetrics")
	if col != nil {
		c.collector, c.obsPrefix = col, prefix
		col.AttachGroup(c.Group)
	}
}

// ObsPrefix returns the group-name prefix installed by
// EnableTracingPrefixed / EnableMetricsPrefixed ("" when unprefixed).
// Layers that add their own trace groups (the fault injector) use it to
// stay consistent with the cluster's node groups.
func (c *Cluster) ObsPrefix() string { return c.obsPrefix }

// beforeFirstNode panics if a node exists: AddNode attaches the
// cluster's observation to each node as it is built, so an attach call
// after it would miss every node already there.
func (c *Cluster) beforeFirstNode(call string) {
	if len(c.nodes) > 0 {
		panic(fmt.Sprintf("core: %s after AddNode: attach observation before the first node", call))
	}
}

// observeNet wires the network's observers, once, as the first node is
// added: every port, this node's and any later one's, is then traced.
func (c *Cluster) observeNet() {
	tr, prefix := c.tracer, c.obsPrefix
	c.Net.Observe(tr, func(node string) obs.GroupID { return tr.Group(prefix + node) }, c.checkers)
}

// observe attaches the cluster's tracer and checker to each of the
// node's layers, one call per layer, and enrolls it with the collector.
// Track registration order follows the layout above.
func (n *Node) observe() {
	tr := n.c.tracer
	n.chk = n.c.CheckerAt(n.Part)
	n.sink = tr.Sink(n.Part)
	g := tr.Group(n.c.obsPrefix + n.Name)
	if n.Sched != nil {
		n.schedLane = n.Sched.Observe(n.sink, g, n.chk, n.Name)
		n.Gate.Observe(n.sink, g, n.chk)
		n.Accels.Observe(n.sink, g)
		n.DMA.Observe(n.sink, g)
		n.Chan.Observe(n.chk, n.Name)
	}
	n.Objects.Observe(n.chk, n.Name)
	n.Host.Observe(n.sink, g)
	if n.c.collector != nil {
		n.enableMetrics(n.c.collector)
	}
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
