// Package netsim simulates the testbed network: full-duplex Ethernet
// links with serialization and propagation delay, a store-and-forward
// ToR switch, and a topology connecting named nodes. It stands in for
// the Arista/Cavium switches and Intel NICs of the paper's 8-node
// testbed (§2.2.1).
package netsim

import (
	"fmt"

	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
)

// Packet is a frame in flight. Payload carries the application message;
// Size is the frame size on the wire (quoted packet size, excluding
// preamble/IFG which the link model adds). Send copies the packet, so
// the caller's Packet is its own again once Send returns.
type Packet struct {
	Src, Dst string
	Size     int
	Payload  any
	// FlowID steers the packet at receivers that hash flows to cores.
	FlowID uint64
}

// Handler consumes packets delivered to a node.
type Handler interface {
	// Deliver is invoked when the last bit of the packet arrives. pkt is
	// the network's copy and is valid only during the call: a handler
	// that needs the packet afterwards copies it.
	Deliver(pkt *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(pkt *Packet)

// Deliver implements Handler.
func (f HandlerFunc) Deliver(pkt *Packet) { f(pkt) }

// link is one direction of a full-duplex port: a serializer modeled as a
// single-server FIFO whose service time is the frame's wire time.
type link struct {
	gbps    float64
	station *sim.Station
	// propagation covers cable + switch cut-through overheads.
	propagation sim.Time
}

func newLink(eng *sim.Engine, gbps float64, prop sim.Time) *link {
	return &link{gbps: gbps, station: sim.NewStation(eng, 1), propagation: prop}
}

// Network is a star topology: every node connects to one switch. That is
// exactly the testbed shape (a ToR switch with client and server boxes).
//
// Ports are pinned to the engine partitions of a sim.Group
// (NewPartitioned; New wraps a bare engine as the only partition) and
// the switch is the PDES synchronization boundary. A packet whose
// source and destination live on different partitions is handed across
// at the moment it leaves the source uplink, via Group.Inject; the
// propagation + switch-fabric floor of the slowest such hop is exactly
// the lookahead the group needs, and AttachOn registers it. Delivery
// counters live on the (partition-pinned) ports so the hot path stays
// lock-free; the Network aggregates them on read.
type Network struct {
	eng *sim.Engine
	// group owns the partition engines; nil only on an engine-only
	// network built with New, which has the one partition eng.
	group *sim.Group

	nodes map[string]*port
	// orphanDrops counts packets sent from unknown nodes (no port to
	// account them on).
	orphanDrops uint64

	// LossRate drops each packet independently with this probability
	// (failure injection; the testbed's switch is otherwise lossless).
	LossRate float64

	// nodeLoss holds per-node loss probabilities (applied to traffic in
	// either direction); blocked holds severed directed pairs. Both are
	// fault-injection state, nil until first used.
	nodeLoss map[string]float64
	blocked  map[[2]string]bool

	tracer  *obs.Tracer
	groupOf func(node string) obs.GroupID
	// domain is the tracing domain stamped into cross-partition handoff
	// spans (obs.Tracer.NewDomain); -1 unless a multi-partition network
	// is traced.
	domain int32
	// chks holds one conservation checker per partition; nil when
	// checking is off.
	chks []*invariant.Checker

	// pools holds one free list of flight records per partition.
	pools []flightPool
}

type port struct {
	name    string
	eng     *sim.Engine // the partition engine this port lives on
	part    int
	up      *link // node → switch
	down    *link // switch → node
	handler Handler

	// Per-port conservation counters. delivered counts packets this
	// port received; the drop buckets count packets this port sent that
	// never made it. Each is only ever touched from the port's own
	// partition, so no synchronization is needed.
	delivered      uint64
	drops          uint64
	lost           uint64
	partitionDrops uint64

	// Trace tracks for the two link directions (obs.NoTrack when tracing
	// is off — the zero TrackID is a real track, so these must be
	// initialized explicitly). sink is the partition-private emit buffer
	// all of this port's spans go through (nil when tracing is off);
	// xTrack is the cross-partition handoff lane, registered only on
	// multi-partition networks.
	txTrack obs.TrackID
	rxTrack obs.TrackID
	xTrack  obs.TrackID
	sink    *obs.Sink
}

// switchLatency models store-and-forward plus fabric latency: a typical
// ToR port-to-port latency.
const switchLatency = 600 * sim.Nanosecond

// New creates an empty single-partition network on a bare engine, for
// users that have no sim.Group.
func New(eng *sim.Engine) *Network {
	return &Network{eng: eng, nodes: map[string]*port{}, pools: make([]flightPool, 1)}
}

// NewPartitioned creates an empty network whose ports attach to the
// partitions of g (see AttachOn).
func NewPartitioned(g *sim.Group) *Network {
	n := New(g.Engine(0))
	n.group = g
	n.pools = make([]flightPool, g.Partitions())
	return n
}

// partitions returns the number of engine partitions ports can attach
// to.
func (n *Network) partitions() int {
	if n.group == nil {
		return 1
	}
	return n.group.Partitions()
}

// EngineAt returns partition part's engine. Every placement (AttachOn,
// workload.NewClientAt) resolves its engine here, so an out-of-range
// partition — a topology construction bug — panics with one message.
func (n *Network) EngineAt(part int) *sim.Engine {
	if part < 0 || part >= n.partitions() {
		panic(fmt.Sprintf("netsim: partition %d out of range (network has %d)", part, n.partitions()))
	}
	if n.group == nil {
		return n.eng
	}
	return n.group.Engine(part)
}

// chkAt returns partition part's checker; nil (the disabled checker)
// when none is attached.
func (n *Network) chkAt(part int) *invariant.Checker {
	if part < len(n.chks) {
		return n.chks[part]
	}
	return nil
}

// Attach connects a node with the given link speed and registers its
// receive handler. Attaching a duplicate name panics: it is a topology
// construction bug. The port lands on partition 0; use AttachOn to
// place it.
func (n *Network) Attach(name string, gbps float64, h Handler) {
	n.AttachOn(name, gbps, h, 0)
}

// AttachOn is Attach pinning the port to a partition of the network's
// group. Everything that runs on behalf of this node — its link
// serializers, its receive handler — executes on that partition's
// engine.
func (n *Network) AttachOn(name string, gbps float64, h Handler, part int) {
	if _, dup := n.nodes[name]; dup {
		panic(fmt.Sprintf("netsim: node %q attached twice", name))
	}
	eng := n.EngineAt(part)
	prop := 300 * sim.Nanosecond // NIC MAC + cable
	p := &port{
		name:    name,
		eng:     eng,
		part:    part,
		up:      newLink(eng, gbps, prop),
		down:    newLink(eng, gbps, prop),
		handler: h,
		txTrack: obs.NoTrack,
		rxTrack: obs.NoTrack,
		xTrack:  obs.NoTrack,
	}
	n.nodes[name] = p
	if n.partitions() > 1 {
		// The switch hop is the minimum cross-partition latency: a
		// handoff happens after uplink serialization, and covers
		// propagation to the switch plus the fabric delay.
		n.group.TightenLookahead(prop + switchLatency)
	}
	if n.tracer != nil {
		n.tracePort(p)
	}
}

// Delivered counts successfully delivered packets.
func (n *Network) Delivered() uint64 {
	var total uint64
	for _, p := range n.nodes {
		total += p.delivered
	}
	return total
}

// Drops counts packets addressed to (or sent from) unknown nodes.
func (n *Network) Drops() uint64 {
	total := n.orphanDrops
	for _, p := range n.nodes {
		total += p.drops
	}
	return total
}

// Lost counts packets dropped by injected loss.
func (n *Network) Lost() uint64 {
	var total uint64
	for _, p := range n.nodes {
		total += p.lost
	}
	return total
}

// PartitionDrops counts packets dropped by severed node pairs.
func (n *Network) PartitionDrops() uint64 {
	var total uint64
	for _, p := range n.nodes {
		total += p.partitionDrops
	}
	return total
}

// Observe attaches the network's observers: tr registers one trace
// track per link direction for every port attached afterwards, in
// group(node); chks holds one conservation checker per partition (nil
// or empty: checking off). Cross-partition packets are reconciled
// between the partitions' ledgers with handoff counters at the switch
// boundary. Call once, before the first port is attached: a traced port
// attached earlier would have no lanes, so that panics.
//
// Each port emits through its partition's obs.Sink (no shared span
// buffer across partitions); on a multi-partition network it also gets
// an "xpart" lane carrying cross-partition handoff spans stamped with
// the (domain, src partition, Inject seq) merge identity.
func (n *Network) Observe(tr *obs.Tracer, group func(node string) obs.GroupID, chks []*invariant.Checker) {
	if tr.Enabled() && len(n.nodes) > 0 {
		panic("netsim: Observe with a tracer after a port is attached")
	}
	n.tracer, n.groupOf, n.chks = tr, group, chks
	n.domain = -1
	if n.partitions() > 1 {
		n.domain = tr.NewDomain()
	}
}

func (n *Network) tracePort(p *port) {
	g := n.groupOf(p.name)
	p.sink = n.tracer.Sink(p.part)
	p.txTrack = n.tracer.NewTrack(g, "link tx")
	p.rxTrack = n.tracer.NewTrack(g, "link rx")
	if n.partitions() > 1 {
		p.xTrack = n.tracer.NewTrack(g, "xpart")
	}
}

// Nodes returns the attached node names (order unspecified).
func (n *Network) Nodes() []string {
	out := make([]string, 0, len(n.nodes))
	for name := range n.nodes {
		out = append(out, name)
	}
	return out
}

// LinkGbps returns a node's link speed.
func (n *Network) LinkGbps(name string) float64 {
	p, ok := n.nodes[name]
	if !ok {
		return 0
	}
	return p.up.gbps
}

// SetNodeLoss sets (rate > 0) or clears (rate ≤ 0) an independent drop
// probability applied to every packet entering or leaving the node. The
// effective loss for a packet is the maximum of the global LossRate and
// the two endpoints' node rates.
func (n *Network) SetNodeLoss(name string, rate float64) {
	if n.nodeLoss == nil {
		n.nodeLoss = map[string]float64{}
	}
	if rate <= 0 {
		delete(n.nodeLoss, name)
		return
	}
	n.nodeLoss[name] = rate
}

// SetBlocked severs (or, with cut=false, heals) the a↔b pair in both
// directions — the switch stops forwarding between them, modeling a
// network partition. Unknown names are accepted: the pair simply never
// matches live traffic.
func (n *Network) SetBlocked(a, b string, cut bool) {
	if n.blocked == nil {
		n.blocked = map[[2]string]bool{}
	}
	if cut {
		n.blocked[[2]string{a, b}] = true
		n.blocked[[2]string{b, a}] = true
		return
	}
	delete(n.blocked, [2]string{a, b})
	delete(n.blocked, [2]string{b, a})
}

// effectiveLoss returns the drop probability for a src→dst packet.
func (n *Network) effectiveLoss(src, dst string) float64 {
	loss := n.LossRate
	if len(n.nodeLoss) > 0 {
		if r := n.nodeLoss[src]; r > loss {
			loss = r
		}
		if r := n.nodeLoss[dst]; r > loss {
			loss = r
		}
	}
	return loss
}

// Send injects a packet at its source node. The packet serializes on the
// source uplink, crosses the switch, serializes on the destination
// downlink, and is then delivered. Sending from or to an unknown node
// drops the packet (counted in Drops), mirroring a real switch flooding
// to nowhere. Send copies *pkt and keeps no pointer to it.
//
// Send must be called from the source node's partition. When the
// destination lives on another partition the packet is injected across
// at the moment it has left the source uplink — the remaining
// propagation + fabric delay is the lookahead that makes the handoff
// safe — and everything from the downlink queue on runs on the
// destination's engine.
func (n *Network) Send(pkt *Packet) {
	src, ok := n.nodes[pkt.Src]
	if !ok {
		n.orphanDrops++
		chk := n.chkAt(0)
		chk.NetInject()
		chk.NetDrop()
		return
	}
	chk := n.chkAt(src.part)
	dst, ok := n.nodes[pkt.Dst]
	if !ok {
		src.drops++
		chk.NetInject()
		chk.NetDrop()
		return
	}
	if len(n.blocked) > 0 && n.blocked[[2]string{pkt.Src, pkt.Dst}] {
		src.partitionDrops++
		chk.NetInject()
		chk.NetDrop()
		return
	}
	if loss := n.effectiveLoss(pkt.Src, pkt.Dst); loss > 0 && src.eng.Rand().Float64() < loss {
		src.lost++
		chk.NetInject()
		chk.NetDrop()
		return
	}
	chk.NetInject()
	f := n.takeFlight(src.part)
	f.pkt, f.src, f.dst = *pkt, src, dst
	f.up.Service = spec.SerializationDelay(src.up.gbps, pkt.Size)
	src.up.station.Submit(&f.up)
}

// flight is the network's private record of one packet in transit: the
// packet itself, copied in by Send, both serializer jobs, the two ports,
// and the hop continuations, bound once when the record is made so that
// carrying a packet schedules the same events a closure per hop would
// without allocating any. The handler is given a pointer to the flight's
// packet, valid until it returns.
//
// A flight lives on exactly one partition at a time. Send takes it from
// the source partition's pool; a cross-partition packet carries it over
// in the Group.Inject handoff (the source's last touch is in the event
// that injects, the destination's first in a later window — the round
// barrier orders the two, as it does for seq); deliver returns it to the
// destination partition's pool once the handler has returned. Balanced
// traffic therefore recycles records indefinitely, while a one-way
// cross-partition stream drains the source pool and falls back to making
// one record per packet.
type flight struct {
	n        *Network
	pkt      Packet
	src, dst *port
	up, down sim.Job

	// seq and arriveAt stamp a cross-partition handoff: written on the
	// source partition when the packet is injected, read by handoffIn.
	seq      uint64
	arriveAt sim.Time

	arriveFn, handoffInFn, deliverFn func()
}

// flightPool is one partition's free list, touched only from that
// partition's events. Padded to a cache line: the neighbouring entries
// belong to partitions that other window workers are running.
type flightPool struct {
	sim.FreeList[flight]
	_ [40]byte
}

// maxFreeFlights bounds each partition's free list. The cap is the
// number of packets a partition has in flight at once in steady state
// with room to spare (the 64-node depth-2 mesh needs 128 records), and
// no more: a record with its continuations is ≈ 400 B the collector has
// to mark every cycle, and the ones a one-way cross-partition stream
// strands on the far side are never used again — 4096 of them made that
// stream 40% slower than allocating per hop had been.
const maxFreeFlights = 512

func (n *Network) takeFlight(part int) *flight {
	if f := n.pools[part].Take(); f != nil {
		return f
	}
	f := &flight{n: n}
	f.up.Done = f.upDone
	f.down.Done = f.downDone
	f.arriveFn = f.arrive
	f.handoffInFn = f.handoffIn
	f.deliverFn = f.deliver
	return f
}

func (n *Network) releaseFlight(part int, f *flight) {
	f.pkt, f.src, f.dst = Packet{}, nil, nil
	n.pools[part].Put(f, maxFreeFlights)
}

// upDone runs on the source partition when the frame has left the
// uplink: propagation to the switch, then the fabric delay, then the
// destination's downlink queue — on the destination's engine.
func (f *flight) upDone(enq, started, fin sim.Time) {
	n, src, dst, pkt := f.n, f.src, f.dst, &f.pkt
	src.sink.Span(src.txTrack, "frame", started, fin,
		obs.Args{Req: pkt.FlowID, HasReq: pkt.FlowID != 0, Bytes: pkt.Size, Wait: started - enq})
	hop := src.up.propagation + switchLatency
	if src.part == dst.part {
		src.eng.After(hop, f.arriveFn)
		return
	}
	n.chkAt(src.part).NetHandoffOut()
	now := src.eng.Now()
	f.arriveAt = now + hop
	f.seq = n.group.Inject(src.part, dst.part, f.arriveAt, f.handoffInFn)
	src.sink.Span(src.xTrack, "handoff out", now, f.arriveAt, obs.Args{
		Req: pkt.FlowID, HasReq: pkt.FlowID != 0, Bytes: pkt.Size,
		XC: n.domain, XSrc: int32(src.part), XSeq: f.seq, HasX: true,
	})
}

// handoffIn is the destination partition's half of a crossing.
func (f *flight) handoffIn() {
	n, dst, pkt := f.n, f.dst, &f.pkt
	n.chkAt(dst.part).NetHandoffIn()
	dst.sink.Span(dst.xTrack, "handoff in", f.arriveAt, f.arriveAt, obs.Args{
		Req: pkt.FlowID, HasReq: pkt.FlowID != 0, Bytes: pkt.Size,
		XC: n.domain, XSrc: int32(f.src.part), XSeq: f.seq, HasX: true,
	})
	f.arrive()
}

// arrive runs on the destination's partition: the packet queues on the
// downlink, serializes, propagates, and is delivered.
func (f *flight) arrive() {
	f.down.Service = spec.SerializationDelay(f.dst.down.gbps, f.pkt.Size)
	f.dst.down.station.Submit(&f.down)
}

func (f *flight) downDone(enq, started, fin sim.Time) {
	dst, pkt := f.dst, &f.pkt
	dst.sink.Span(dst.rxTrack, "frame", started, fin,
		obs.Args{Req: pkt.FlowID, HasReq: pkt.FlowID != 0, Bytes: pkt.Size, Wait: started - enq})
	dst.eng.After(dst.down.propagation, f.deliverFn)
}

// poisonPacket overwrites a delivered flight's packet under the
// invariant checker, so a handler that kept its pointer past Deliver
// reads fields no packet has instead of a later packet's.
var poisonPacket = Packet{Src: "released", Dst: "released", Size: -1, FlowID: 0xDBDBDBDBDBDBDBDB}

// deliver hands the flight's packet to the destination's handler and
// releases the flight once the handler has returned: the packet is valid
// for the whole call, and a handler that Sends takes another record.
// Under the invariant checker the flight is never reused; its packet is
// poisoned instead.
func (f *flight) deliver() {
	n, dst := f.n, f.dst
	dst.delivered++
	chk := n.chkAt(dst.part)
	chk.NetDeliver()
	if dst.handler != nil {
		dst.handler.Deliver(&f.pkt)
	}
	if chk != nil {
		f.pkt = poisonPacket
		return
	}
	n.releaseFlight(dst.part, f)
}
