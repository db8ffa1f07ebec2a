// Package core is the iPipe runtime (§3): it spans the SmartNIC and the
// host of each node, wiring together the actor scheduler
// (internal/sched), the host execution engine (internal/hostsim), the
// distributed-memory-object store (internal/dmo), the host↔NIC message
// rings (internal/msgring), the security isolation mechanisms
// (internal/isolation), and the simulated device and network substrates.
//
// A Cluster holds the shared simulation engine, the network, and the
// global actor table; Nodes are added with AddNode and actors deployed
// with Register. Baseline (DPDK, host-only) nodes are Nodes without a
// SmartNIC: traffic lands directly on host cores with DPDK I/O costs.
package core

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/dmo"
	"repro/internal/hostsim"
	"repro/internal/invariant"
	"repro/internal/isolation"
	"repro/internal/msgring"
	"repro/internal/netsim"
	"repro/internal/nicsim"
	"repro/internal/obs"
	"repro/internal/pcie"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
)

// defaultRegionBytes is the per-actor DMO region carved at registration
// when the caller does not specify one (64MB, comfortably above every
// app actor's working set).
const defaultRegionBytes = 64 << 20

// RespEnvelope wraps a response traveling back to an external client
// (the workload generator): Fn is the client's reply continuation, Msg
// the response. netsim handlers that see one invoke Fn(Msg).
type RespEnvelope struct {
	Fn  func(actor.Msg)
	Msg actor.Msg
}

// BatchEnvelope is a client-side message train: several requests bound
// for actors on the same node, coalesced into one wire packet so the
// per-packet receive cost — gate admission on a SmartNIC, the DPDK
// stack on a baseline host — is paid once for the whole train (the
// batched-DMA amortization of insight I6, applied at the client edge).
// Sizes[i] is message i's wire share of the packet; the responses
// travel individually.
type BatchEnvelope struct {
	Msgs  []actor.Msg
	Sizes []int
}

// Cluster is a deployment: a group of engine partitions, one network, a
// shared actor table, and a set of nodes. A classic cluster is the
// 1-partition group (DESIGN.md §9): AtBarrier actions are ordinary
// engine events there, DeferBarrier runs inline, and RunUntil is
// Eng.RunUntil — so driving it with Eng.Run() is equally valid.
type Cluster struct {
	// Eng is partition 0's engine — the only one on a classic cluster.
	Eng   *sim.Engine
	Net   *netsim.Network
	Table *actor.Table
	nodes map[string]*Node

	// Group owns the engines; nodes are assigned round-robin to its
	// partitions.
	Group       *sim.Group
	pdesWorkers int
	nextPart    int

	tracer    *obs.Tracer
	collector *obs.Collector
	obsPrefix string
	// checkers holds one invariant checker per partition; empty when
	// checking is disabled. See AttachCheckers.
	checkers []*invariant.Checker
	// wires holds one free list of wire records per partition (wire.go).
	wires []wirePool

	// onMembership listeners observe node crash/recovery transitions
	// (see OnMembership in fault.go).
	onMembership []func(node string, down bool)
}

// NewCluster creates an empty classic (single-engine) cluster with a
// deterministic seed.
func NewCluster(seed uint64) *Cluster { return NewPartitionedCluster(seed, 1) }

// NewPartitionedCluster creates a cluster sharded across parts engine
// partitions for conservative parallel execution: AddNode assigns each
// node (all of its NIC/host/PCIe models) to a partition round-robin,
// and the network switch hands packets across partitions (see
// netsim.AttachOn). Drive it with Cluster.RunUntil; SetPDESWorkers
// picks the parallelism (any worker count produces byte-identical
// results). parts ≤ 1 is the classic cluster.
//
// Everything a classic cluster supports runs partitioned too, through
// the group's two window-boundary mechanisms (DESIGN.md §9): work that
// mutates cluster-visible state from inside a window — a §3.2.5
// migration commit, a watchdog kill — goes through
// sim.Group.DeferBarrier and lands at the next window boundary in
// partition order; cluster-wide fault arms are sim.Group.AtBarrier
// actions. Tracing emits into per-partition obs.Sinks and the collector
// samples at window boundaries, so artifacts are byte-identical at any
// worker count and observation never perturbs results.
func NewPartitionedCluster(seed uint64, parts int) *Cluster {
	g := sim.NewGroup(seed, parts)
	return &Cluster{
		Eng:   g.Engine(0),
		Group: g,
		Net:   netsim.NewPartitioned(g),
		Table: actor.NewTable(),
		nodes: map[string]*Node{},
		wires: make([]wirePool, g.Partitions()),
	}
}

// Partitions returns the number of engine partitions (1 on classic
// clusters).
func (c *Cluster) Partitions() int { return c.Group.Partitions() }

// SetPDESWorkers bounds the goroutines used by RunUntil on partitioned
// clusters; ≤ 1 runs all partitions on the caller's goroutine (the
// serial merge — same results, no parallelism).
func (c *Cluster) SetPDESWorkers(w int) { c.pdesWorkers = w }

// RunUntil advances every partition to the deadline.
func (c *Cluster) RunUntil(deadline sim.Time) { c.Group.RunUntil(deadline, c.pdesWorkers) }

// Tracer returns the cluster's tracer (nil when tracing is disabled).
func (c *Cluster) Tracer() *obs.Tracer { return c.tracer }

// Collector returns the cluster's metrics collector (nil when disabled).
func (c *Cluster) Collector() *obs.Collector { return c.collector }

// Node returns a node by name, or nil.
func (c *Cluster) Node(name string) *Node { return c.nodes[name] }

// Config describes one node.
type Config struct {
	Name string
	// NIC is the SmartNIC model; nil means a dumb NIC (baseline node).
	NIC *spec.NICModel
	// LinkGbps overrides the node's link speed (default: NIC link, or
	// 10 for baseline nodes).
	LinkGbps float64
	// ringSlots/ringBatch size the host↔NIC channels.
	ringSlots int
	ringBatch int
	// WatchdogTimeout bounds per-invocation NIC core occupancy (§3.4);
	// 0 uses 50ms; negative disables.
	WatchdogTimeout sim.Time
	// DisableMigration pins the initial placement (the Floem-style
	// static configuration uses this).
	DisableMigration bool
	// RawState skips per-operation DMO translation and bookkeeping
	// charges, modeling a hand-rolled (non-iPipe) implementation; used
	// by the framework-overhead comparison (Figure 17).
	RawState bool
	// SchedOverride, if non-nil, replaces the NIC scheduler config
	// derived from the model (used by the Figure 16 ablations).
	SchedOverride *sched.Config
}

// MigrationRecord captures one migration's per-phase elapsed time
// (Figure 18 and Appendix B.3). Push migrations fill all four phases;
// pull migrations run a single object-move stage and record it as
// Phase[2] with Pull set, so Node.Migrations accounts both directions.
type MigrationRecord struct {
	Actor      string
	start      sim.Time
	Phase      [4]sim.Time // elapsed per phase
	BytesMoved int
	Buffered   int // requests forwarded at commit (phase 4 on pushes)
	// Pull marks a host→NIC pull migration (§3.2.5's reverse direction).
	Pull bool
}

// Total returns the end-to-end migration time.
func (r MigrationRecord) Total() sim.Time {
	return r.Phase[0] + r.Phase[1] + r.Phase[2] + r.Phase[3]
}

// Node is one server: a host, optionally a SmartNIC running iPipe, and
// the glue between them.
type Node struct {
	c   *Cluster
	eng *sim.Engine
	cfg Config

	Name string
	// Part is the node's engine partition (0 on classic clusters).
	Part      int
	NICModel  *spec.NICModel
	hostModel *spec.HostModel

	Sched   *sched.Scheduler // nil on baseline nodes
	Host    *hostsim.Host
	Gate    *nicsim.TrafficGate
	Accels  *nicsim.AccelBank
	DMA     *pcie.Engine
	Chan    *msgring.Channel
	Objects *dmo.Store

	Watchdog   *isolation.Watchdog
	Violations *isolation.ViolationLog

	// lanes, when set, interposes class-priority lanes between the
	// traffic gate and the scheduler (see SetLaneDispatcher).
	lanes LaneDispatcher

	actors map[actor.ID]*actor.Actor

	// sink is the node's partition trace sink (nil unless tracing is
	// enabled) and schedLane the scheduler's lane, where migrations land.
	sink      *obs.Sink
	schedLane obs.TrackID

	// Migrations records completed push migrations for Figure 18.
	Migrations []MigrationRecord
	// Dropped counts undeliverable messages.
	Dropped uint64
	// flushArmed tracks the pending ring-flush timer; flushFn is
	// n.flushRing, bound the first time the timer is armed.
	flushArmed bool
	flushFn    func()
	// fwdRetry holds the messages a full NIC→host ring turned away, in
	// the order their retry timers fire; fwdRetryFn is n.retryForward,
	// bound on the first retry. hostRetry and hostRetryFn (n.retryHost)
	// do the same for the host→NIC ring.
	fwdRetry    actor.MsgFIFO
	fwdRetryFn  func()
	hostRetry   actor.MsgFIFO
	hostRetryFn func()
	// nicBatchFn is n.arriveFromRing, the NICPoll callback, bound on the
	// first poll.
	nicBatchFn func([]msgring.Message)
	// The node's free lists of per-message records: handler contexts
	// (takeCtx), wire arrivals (wire.go), and the handles messages cross
	// the rings in (takeRing). wires is its partition's list of
	// node→node wire records (wire.go).
	freeCtx      sim.FreeList[execCtx]
	freeArrivals sim.FreeList[arrival]
	freeRings    sim.FreeList[ringMsg]
	wires        *wirePool
	// chk is the partition's invariant checker (nil when disabled):
	// under it released records are poisoned instead of recycled.
	chk *invariant.Checker

	// Failure-injection state (see fault.go): down marks the whole node
	// crashed, nicDown the SmartNIC processing complex alone, and
	// nicSlowdown > 1 dilates NIC-core service times (overload bursts).
	down        bool
	nicDown     bool
	nicSlowdown float64
}

// migrationBandwidthGBs is the effective object-migration bandwidth
// (below raw PCIe: per-object table updates and message framing eat into
// it; calibrated so a 32MB Memtable takes ≈35ms as in Appendix B.3).
const migrationBandwidthGBs = 0.9

// SchedConfig is the scheduler a NIC model gets unless
// Config.SchedOverride replaces it: the hybrid discipline with the
// card's §3.2.3 thresholds, behind the software shuffle layer where the
// card has no hardware traffic manager (§3.2.6).
func SchedConfig(nic *spec.NICModel) sched.Config {
	cfg := sched.DefaultConfig(nic.Cores)
	cfg.TailThresh = nic.TailThreshUs
	cfg.MeanThresh = nic.MeanThreshUs
	if !nic.HasTrafficManager {
		cfg.Ingress = sched.ShuffleLayer
	}
	return cfg
}

// AddNode creates, wires, and attaches a node.
func (c *Cluster) AddNode(cfg Config) *Node {
	if cfg.Name == "" {
		panic("core: node needs a name")
	}
	if _, dup := c.nodes[cfg.Name]; dup {
		panic(fmt.Sprintf("core: duplicate node %q", cfg.Name))
	}
	if cfg.ringSlots == 0 {
		cfg.ringSlots = msgring.DefaultRingSlots
	}
	if cfg.ringBatch == 0 {
		cfg.ringBatch = 4
	}
	if cfg.WatchdogTimeout == 0 {
		// Generous default: legitimate heavy handlers (compaction,
		// ranker sorts) run for milliseconds; the watchdog targets
		// actors that never yield (§3.4).
		cfg.WatchdogTimeout = 50 * sim.Millisecond
	}
	link := cfg.LinkGbps
	if link == 0 {
		if cfg.NIC != nil {
			link = cfg.NIC.LinkGbps
		} else {
			link = 10
		}
	}

	part := c.nextPart % c.Group.Partitions()
	c.nextPart++
	eng := c.Group.Engine(part)

	n := &Node{
		c:          c,
		eng:        eng,
		Part:       part,
		cfg:        cfg,
		Name:       cfg.Name,
		NICModel:   cfg.NIC,
		hostModel:  spec.IntelHost(),
		Objects:    dmo.NewStore(),
		Violations: isolation.NewViolationLog(),
		actors:     map[actor.ID]*actor.Actor{},
		wires:      &c.wires[part],
	}

	n.Host = hostsim.New(eng, hostsim.Config{
		Cores:    n.hostModel.Cores,
		Steal:    true,
		PollCost: 50 * sim.Nanosecond,
	}, hostsim.Hooks{
		Run:     n.runOnHost,
		Unowned: n.hostUnowned,
	})

	if cfg.NIC != nil {
		n.Gate = nicsim.NewTrafficGate(eng, cfg.NIC)
		n.Accels = nicsim.NewAccelBank(eng, cfg.NIC)
		n.DMA = pcie.New(eng, cfg.NIC.DMA)
		n.Chan = msgring.NewChannel(eng, n.DMA, cfg.ringSlots, cfg.ringBatch)
		n.Chan.OnHostReady = n.pumpToHost
		n.Chan.OnNICReady = n.pumpToNIC

		if cfg.WatchdogTimeout > 0 {
			n.Watchdog = isolation.NewWatchdog(cfg.WatchdogTimeout, n.killActor)
		}

		scfg := SchedConfig(cfg.NIC)
		if cfg.SchedOverride != nil {
			scfg = *cfg.SchedOverride
		}
		hooks := sched.Hooks{
			Run:     n.runOnNIC,
			FwdTax:  func(b int) sim.Time { return cfg.NIC.FwdTax.Cost(b) },
			Forward: n.forwardToHost,
			Quantum: func(avg int) sim.Time {
				if avg <= 0 {
					avg = 512
				}
				q := cfg.NIC.ComputeHeadroom(avg)
				if q < sim.Microsecond {
					q = sim.Microsecond
				}
				return q
			},
		}
		if !cfg.DisableMigration {
			hooks.PushToHost = n.pushToHost
			hooks.PullFromHost = n.pullFromHost
		}
		n.Sched = sched.New(eng, scfg, hooks)
	}

	if len(c.nodes) == 0 {
		c.observeNet()
	}
	c.nodes[cfg.Name] = n
	c.Net.AttachOn(cfg.Name, link, n, part)
	n.observe()
	return n
}

// Offloaded reports whether this node runs iPipe on a SmartNIC.
func (n *Node) Offloaded() bool { return n.Sched != nil }

// Eng returns the engine this node's events run on (the partition
// engine under PDES, the cluster engine otherwise).
func (n *Node) Eng() *sim.Engine { return n.eng }

// LaneDispatcher sits between traffic-gate admission and the actor
// scheduler: wire messages are offered to it instead of going straight
// to Sched.Arrive, letting internal/qos impose class-priority lanes
// without core importing it. Offer runs on the node's engine.
type LaneDispatcher interface {
	Offer(m actor.Msg)
}

// SetLaneDispatcher interposes d on this node's wire→scheduler path
// (nil restores direct delivery). Only meaningful on offloaded nodes;
// local injections (Inject) bypass lanes by design — node-local control
// traffic is never queued behind the wire.
func (n *Node) SetLaneDispatcher(d LaneDispatcher) { n.lanes = d }

// arriveNIC hands one admitted wire message to the NIC-side runtime,
// through the lane dispatcher when one is installed.
func (n *Node) arriveNIC(m actor.Msg) {
	if n.lanes != nil {
		n.lanes.Offer(m)
		return
	}
	n.Sched.Arrive(m)
}

// Register deploys an actor on this node. onNIC selects initial
// placement (ignored and forced to host on baseline nodes or when the
// actor is PinHost). regionBytes ≤ 0 uses 64 MB.
func (n *Node) Register(a *actor.Actor, onNIC bool, regionBytes int) error {
	if _, dup := n.actors[a.ID]; dup {
		return fmt.Errorf("core: actor %d already registered on %s", a.ID, n.Name)
	}
	if _, elsewhere := n.c.Table.Lookup(a.ID); elsewhere {
		return fmt.Errorf("core: actor %d already deployed", a.ID)
	}
	if regionBytes <= 0 {
		regionBytes = defaultRegionBytes
	}
	if a.PinHost || n.Sched == nil {
		onNIC = false
	}
	if a.PinNIC && n.Sched != nil {
		onNIC = true
	}
	n.actors[a.ID] = a
	n.Objects.Register(uint32(a.ID), regionBytes)
	if a.OnInit != nil {
		a.OnInit(&execCtx{node: n, a: a, onNIC: onNIC, free: true})
	}
	if onNIC {
		n.Sched.AddActor(a)
	} else {
		n.Host.AddActor(a)
	}
	n.c.Table.Set(a.ID, actor.Ref{Node: n.Name, OnNIC: onNIC})
	return nil
}

// Deliver implements netsim.Handler: traffic from the wire.
func (n *Node) Deliver(pkt *netsim.Packet) {
	if w, ok := pkt.Payload.(*wireMsg); ok {
		// A node→node message. The record changes hands even when this
		// node is down — it was delivered; only the message is dropped.
		m, ok := n.takeWire(w)
		if !ok {
			return
		}
		if n.down {
			return
		}
		n.receive(m, pkt.Src, pkt.Size, pkt.FlowID)
		return
	}
	if n.down {
		// Crashed nodes drop everything on the floor: the client's retry
		// path is what recovers the request.
		return
	}
	switch p := pkt.Payload.(type) {
	case RespEnvelope:
		// A response to a client co-located on this node.
		p.Fn(p.Msg)
	case actor.Msg:
		n.receive(p, pkt.Src, pkt.Size, pkt.FlowID)
	case BatchEnvelope:
		// One gate admission for the whole train; the scheduler then
		// sees the individual messages.
		a := n.takeArrival()
		for i, m := range p.Msgs {
			m.WireSize = int32(p.Sizes[i])
			a.msgs = append(a.msgs, fromWire(m, pkt.Src))
		}
		n.admit(a, pkt.FlowID, pkt.Size)
	default:
		n.Dropped++
	}
}

// receive admits one message that arrived in a packet of its own.
func (n *Node) receive(m actor.Msg, src string, size int, flow uint64) {
	m.WireSize = int32(size)
	m.FlowID = flow
	a := n.takeArrival()
	a.msgs = append(a.msgs, fromWire(m, src))
	n.admit(a, flow, size)
}

// fromWire stamps a message that arrived in a packet from node src.
func fromWire(m actor.Msg, src string) actor.Msg {
	m.Via = actor.ViaWire
	if m.Origin == "" {
		m.Origin = src
	}
	return m
}

// runOnNIC is the scheduler's Run hook: execute the handler for real,
// return the modeled NIC-core service time.
func (n *Node) runOnNIC(a *actor.Actor, m actor.Msg) sim.Time {
	if n.down || n.nicDown {
		// The cores are dead: queued work drains as drops — no handler
		// runs, no state mutates, no reply leaves.
		return 100 * sim.Nanosecond
	}
	ctx := n.takeCtx(a, true)
	ref := a.OnMessage(ctx, m)
	service := n.scaleNIC(ref) + ctx.extra
	if n.Watchdog != nil {
		service, _ = n.Watchdog.Check(a, service)
	}
	return ctx.finish(service)
}

// runOnHost is the host engine's Run hook.
func (n *Node) runOnHost(a *actor.Actor, m actor.Msg) sim.Time {
	if n.down {
		return 100 * sim.Nanosecond
	}
	ctx := n.takeCtx(a, false)
	ref := a.OnMessage(ctx, m)
	service := n.scaleHost(ref, a) + ctx.extra
	switch m.Via {
	case actor.ViaWire:
		service += n.hostModel.DPDKRxOcc
	case actor.ViaRing:
		service += n.hostModel.RingRxOcc
	}
	if !n.cfg.RawState {
		// iPipe bookkeeping (EWMA updates, dispatch table) — part of the
		// measured framework overhead of Figure 17.
		service += 90 * sim.Nanosecond
	}
	return ctx.finish(service)
}

// scaleNIC converts a reference-core (CN2350) cost to this NIC's cores.
// An injected overload burst (nicSlowdown > 1) dilates the result.
func (n *Node) scaleNIC(ref sim.Time) sim.Time {
	t := sim.Time(float64(ref) * n.NICModel.CyclesScale())
	if n.nicSlowdown > 1 {
		t = sim.Time(float64(t) * n.nicSlowdown)
	}
	return t
}

// scaleHost converts a reference-core cost to a host core, crediting
// less speedup to memory-bound actors (I3).
func (n *Node) scaleHost(ref sim.Time, a *actor.Actor) sim.Time {
	h := n.hostModel
	mb := a.MemBound
	speed := h.ComputeSpeedup*(1-mb) + h.MemorySpeedup*mb
	return sim.Time(float64(ref) / speed)
}

// ringRetryDelay is how long a producer waits before it offers a message
// to a full ring again, in either direction.
const ringRetryDelay = 2 * sim.Microsecond

// forwardToHost is the scheduler's Forward hook: NIC-received traffic
// owned by a host actor (or nobody) crosses the rings.
func (n *Node) forwardToHost(m actor.Msg) {
	m.Via = actor.ViaRing
	r := n.takeRing(m)
	if _, err := n.Chan.NICPush(r.slot()); err != nil {
		// Ring full: in hardware the NIC retries; bounded retry here.
		// Every retry waits the same delay, so the timers fire in the
		// order the messages were queued.
		n.putRing(r)
		if n.fwdRetryFn == nil {
			n.fwdRetryFn = n.retryForward
		}
		n.fwdRetry.Push(m)
		n.eng.After(ringRetryDelay, n.fwdRetryFn)
		return
	}
	n.armFlush()
}

func (n *Node) retryForward() {
	if m, ok := n.fwdRetry.Pop(); ok {
		n.forwardToHost(m)
	}
}

// armFlush guarantees a partially filled ring batch flushes within 1µs.
func (n *Node) armFlush() {
	if n.flushArmed {
		return
	}
	n.flushArmed = true
	if n.flushFn == nil {
		n.flushFn = n.flushRing
	}
	n.eng.After(sim.Microsecond, n.flushFn)
}

func (n *Node) flushRing() {
	n.flushArmed = false
	n.Chan.Flush()
}

// pumpToHost drains ready NIC→host messages into the host scheduler.
func (n *Node) pumpToHost() {
	for {
		msgs, _ := n.Chan.HostPoll(64)
		if len(msgs) == 0 {
			return
		}
		for i := range msgs {
			if m, ok := n.fromRing(&msgs[i]); ok {
				n.Host.Arrive(m)
			}
		}
	}
}

// pumpToNIC fetches host→NIC messages and injects them into the NIC
// scheduler.
func (n *Node) pumpToNIC() {
	if n.nicBatchFn == nil {
		n.nicBatchFn = n.arriveFromRing
	}
	n.Chan.NICPoll(64, n.nicBatchFn)
}

// arriveFromRing is the NICPoll callback: a landed host→NIC batch enters
// the NIC scheduler.
func (n *Node) arriveFromRing(msgs []msgring.Message) {
	for i := range msgs {
		if m, ok := n.fromRing(&msgs[i]); ok {
			n.Sched.Arrive(m)
		}
	}
}

// hostToNIC stages a host-side message for a NIC-resident actor of this
// node in the host→NIC ring. A message a full ring turns away is routed
// again from the top after ringRetryDelay, by one bound continuation, in
// the order the messages were turned away.
func (n *Node) hostToNIC(m actor.Msg) {
	m.Via = actor.ViaRing
	r := n.takeRing(m)
	if _, err := n.Chan.HostPush(r.slot()); err != nil {
		n.putRing(r)
		if n.hostRetryFn == nil {
			n.hostRetryFn = n.retryHost
		}
		n.hostRetry.Push(m)
		n.eng.After(ringRetryDelay, n.hostRetryFn)
	}
}

func (n *Node) retryHost() {
	if m, ok := n.hostRetry.Pop(); ok {
		n.hostUnowned(m)
	}
}

// hostUnowned routes host-side messages whose actor is not (or no
// longer) host-resident.
func (n *Node) hostUnowned(m actor.Msg) {
	ref, ok := n.c.Table.Lookup(m.Dst)
	if !ok {
		n.Dropped++
		return
	}
	if ref.Node == n.Name && ref.OnNIC && n.Sched != nil {
		n.hostToNIC(m)
		return
	}
	if ref.Node != n.Name {
		// Mid-flight to a remote actor (rare): send it over the wire.
		n.sendRemote(m, ref.Node)
		return
	}
	// The actor is mid-migration (pulled off the host, not yet started
	// on the NIC): buffer in the runtime, as §3.2.5 prescribes.
	if a, ok := n.actors[m.Dst]; ok && a.State != actor.Stable {
		a.Mailbox.Push(m)
		return
	}
	n.Dropped++
}

// sendRemote serializes a message onto the network.
func (n *Node) sendRemote(m actor.Msg, dstNode string) {
	size := max(msgring.HeaderBytes+len(m.Data), int(m.WireSize))
	if size < 64 {
		size = 64
	}
	m.Via = actor.ViaWire
	n.sendWire(m, dstNode, size)
}

// killActor is the watchdog's OnKill: deregister everywhere and free
// resources (§3.4). The kill fires mid-window on the owning partition's
// goroutine, so the shared-table rewrite goes through DeferBarrier:
// inline on a classic cluster, at the next window boundary on a
// partitioned one (the actor may execute a few more already queued
// invocations inside the current window — the documented PDES kill
// semantics). Idempotent: a deferred kill may race a crash drain or a
// repeated watchdog trip for the same actor within one window.
func (n *Node) killActor(a *actor.Actor) {
	n.c.Group.DeferBarrier(n.Part, func() {
		if _, live := n.actors[a.ID]; !live {
			return
		}
		if n.Sched != nil {
			n.Sched.RemoveActor(a.ID)
		}
		n.Host.RemoveActor(a.ID)
		n.Objects.DestroyActor(uint32(a.ID))
		n.c.Table.Delete(a.ID)
		delete(n.actors, a.ID)
	})
}

// HostCoresUsed reports the node's host CPU usage in cores (Figure 13's
// y-axis).
func (n *Node) HostCoresUsed() float64 { return n.Host.CoresUsed() }

// HostCoresAllocated reports host CPU usage including the dedicated
// busy-polling runtime thread both the DPDK baseline and the iPipe host
// runtime pin (§5.1: runtime threads poll the message rings; DPDK cores
// poll RX queues). Kernel-bypass stacks occupy a core whether or not
// requests arrive, so a deployment never allocates less than one.
func (n *Node) HostCoresAllocated() float64 {
	used := n.Host.CoresUsed()
	if used < 1 {
		return 1
	}
	return used
}

// ringMsg is the handle an actor message crosses the host↔NIC rings in.
// The ring slot's App field points at it (the real system passes a
// packet-buffer pointer alongside the entry), so the message is not
// boxed; Data is what crosses PCIe and is checksummed. A handle is a
// per-message record (DESIGN.md §4), taken by the node that pushes and
// released where the message is copied out of the ring — or at once when
// the ring is full. Under the invariant checker a released handle is
// poisoned, and a message landing on it is a use-after-release violation.
type ringMsg struct {
	m        actor.Msg
	poisoned bool
}

// maxFreeRings bounds a node's free list of ring handles: both rings'
// worth of default-sized slots in flight.
const maxFreeRings = 2 * msgring.DefaultRingSlots

func (n *Node) takeRing(m actor.Msg) *ringMsg {
	r := n.freeRings.Take()
	if r == nil {
		r = &ringMsg{}
	}
	r.m = m
	return r
}

func (n *Node) putRing(r *ringMsg) {
	r.m = actor.Msg{} // do not pin the message's payload
	if n.chk != nil {
		r.poisoned = true
		return
	}
	n.freeRings.Put(r, maxFreeRings)
}

// slot is the ring entry the handle travels in.
func (r *ringMsg) slot() msgring.Message {
	return msgring.Message{
		Kind:     uint16(r.m.Kind),
		DstActor: uint32(r.m.Dst),
		Data:     r.m.Data,
		App:      r,
	}
}

// fromRing copies the message out of a polled entry's handle and releases
// the handle; ok is false for a handle that was already released.
func (n *Node) fromRing(e *msgring.Message) (m actor.Msg, ok bool) {
	r := e.App.(*ringMsg)
	if r.poisoned {
		n.chk.UseAfterRelease("ring handle", n.Name)
		return m, false
	}
	m = r.m
	n.putRing(r)
	return m, true
}
