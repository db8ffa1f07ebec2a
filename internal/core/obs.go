package core

import (
	"fmt"
	"sort"

	"repro/internal/actor"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// This file wires internal/obs into the node runtime. The substrate
// packages (netsim, nicsim, pcie) carry their own tracer hooks; the
// scheduler and host engine stay observability-free and report through
// their Hooks callbacks, which the runtime translates into spans here.
//
// Track layout per node (one trace group = one Chrome-trace process):
//
//	nic core 0..N   one lane per NIC core (actor executions, forwards)
//	sched           instantaneous scheduler decisions
//	traffic mgr     the PPS gate's pipeline occupancy
//	accel <name>    one lane per accelerator unit
//	dma             the DMA engine's transfer occupancy
//	host core 0..M  one lane per host core
//	link tx/rx      the node's two link directions (netsim)

// nodeObs holds a node's trace tracks; nil when tracing is disabled.
// All emission goes through the node's partition sink (sink 0 on
// classic clusters), so nodes on different PDES partitions never share
// a span buffer.
type nodeObs struct {
	sink       *obs.Sink
	nicTracks  []obs.TrackID
	hostTracks []obs.TrackID
	schedTrack obs.TrackID
}

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
	sink := tr.Sink(n.Part)
	o := &nodeObs{sink: sink, schedTrack: obs.NoTrack}
	if n.Sched != nil {
		for i := 0; i < n.Sched.NumCores(); i++ {
			o.nicTracks = append(o.nicTracks, tr.NewTrack(g, fmt.Sprintf("nic core %d", i)))
		}
		o.schedTrack = tr.NewTrack(g, "sched")
		n.Gate.EnableTracing(sink, g)
		n.Accels.EnableTracing(sink, g)
		n.DMA.EnableTracing(sink, g)
	}
	for i := 0; i < n.HostModel.Cores; i++ {
		o.hostTracks = append(o.hostTracks, tr.NewTrack(g, fmt.Sprintf("host core %d", i)))
	}
	n.obs = o
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
	n.latHist = reg.Histogram("sojourn_us")
}

// actorLabel names a span after its actor.
func actorLabel(a *actor.Actor) string {
	if a == nil {
		return "forward"
	}
	if a.Name != "" {
		return a.Name
	}
	return fmt.Sprintf("actor %d", a.ID)
}

// obsSchedExec is the scheduler's OnExec hook: one span per completed
// NIC-core operation.
func (n *Node) obsSchedExec(coreID int, mode sched.Mode, a *actor.Actor, m actor.Msg, start, end sim.Time) {
	if n.latHist != nil && a != nil {
		n.latHist.Observe((end - m.ArrivedAt).Micros())
	}
	o := n.obs
	if o == nil || coreID >= len(o.nicTracks) {
		return
	}
	wait := start - m.ArrivedAt
	if wait < 0 {
		wait = 0
	}
	name := actorLabel(a)
	if mode == sched.DRR {
		name += " [drr]"
	}
	o.sink.Span(o.nicTracks[coreID], name, start, end, execArgs(a, m, wait))
}

// execArgs assembles span annotations for one executed message,
// including the actor's shard tag when it carries one.
func execArgs(a *actor.Actor, m actor.Msg, wait sim.Time) obs.Args {
	args := obs.Args{Req: m.FlowID, HasReq: m.FlowID != 0, Bytes: m.WireSize, Wait: wait}
	if a != nil && a.Sharded {
		args.Shard, args.HasShard = a.Shard, true
	}
	return args
}

// obsHostExec is the host engine's OnExec hook.
func (n *Node) obsHostExec(coreID int, a *actor.Actor, m actor.Msg, start, end sim.Time) {
	if n.latHist != nil {
		n.latHist.Observe((end - m.ArrivedAt).Micros())
	}
	o := n.obs
	if o == nil || coreID >= len(o.hostTracks) {
		return
	}
	wait := start - m.ArrivedAt
	if wait < 0 {
		wait = 0
	}
	o.sink.Span(o.hostTracks[coreID], actorLabel(a), start, end, execArgs(a, m, wait))
}

// obsModeSwitch marks an actor's FCFS↔DRR transition on the sched lane.
func (n *Node) obsModeSwitch(a *actor.Actor, to sched.Mode) {
	o := n.obs
	if o == nil {
		return
	}
	verb := "downgrade "
	if to == sched.FCFS {
		verb = "upgrade "
	}
	o.sink.Instant(o.schedTrack, verb+actorLabel(a), n.eng.Now())
}

// obsMigrate marks a migration decision on the sched lane.
func (n *Node) obsMigrate(a *actor.Actor, push bool) {
	o := n.obs
	if o == nil {
		return
	}
	if push {
		o.sink.Instant(o.schedTrack, "push "+actorLabel(a), n.eng.Now())
		return
	}
	o.sink.Instant(o.schedTrack, "pull from host", n.eng.Now())
}

// obsMigrateCommit emits the migration's hand-off span on the sched
// lane: start is when the protocol began its node-local phases, the
// end is the commit point — under PDES the window boundary where the
// coordinator applied the table rewrite. The span lands in the node's
// own partition sink, so partitioned traces stay race-free and merge
// byte-identically at any worker count.
func (n *Node) obsMigrateCommit(a *actor.Actor, push bool, start sim.Time, bytes int) {
	o := n.obs
	if o == nil {
		return
	}
	dir := "migrate→host "
	if !push {
		dir = "migrate→nic "
	}
	o.sink.Span(o.schedTrack, dir+actorLabel(a), start, n.eng.Now(), obs.Args{Bytes: bytes})
}

// obsAutoscale marks a core changing scheduling group.
func (n *Node) obsAutoscale(coreID int, from, to sched.Mode) {
	o := n.obs
	if o == nil {
		return
	}
	o.sink.Instant(o.schedTrack, fmt.Sprintf("core %d %s→%s", coreID, from, to), n.eng.Now())
}
