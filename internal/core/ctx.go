package core

import (
	"repro/internal/actor"
	"repro/internal/dmo"
	"repro/internal/invariant"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// execCtx implements actor.Ctx for one handler invocation. It records
// the modeled cost of every runtime service the handler uses (sends,
// DMO accesses, accelerator invocations) in extra; the Run hooks add
// extra to the handler's own compute cost.
//
// Contexts are recycled per node (takeCtx / putCtx), so an actor.Ctx is
// valid only for the handler call it was passed to. An OnInit context is
// a plain free one and is never pooled.
type execCtx struct {
	node  *Node
	a     *actor.Actor
	onNIC bool
	extra sim.Time
	// free disables cost accounting (used for OnInit, which the paper
	// performs at registration time, off the data path).
	free bool
	// effects collects the handler's outbound effects (sends, replies).
	// Handlers execute instantly in real time, but their messages must
	// leave when the modeled execution *finishes*, so the runtime
	// flushes these after the service time elapses.
	effects []effect
	flushFn func() // c.flush, bound when the context is made
	// views holds the private copies ObjRead handed out in place of
	// views under the invariant checker; finish poisons them.
	views [][]byte
}

// effectKind says what an outbound effect does when it is performed.
type effectKind uint8

const (
	effWire      effectKind = iota // put m on the wire to node
	effLocalNIC                    // NIC-originated m to an actor on this node
	effLocalHost                   // host-originated m to an actor on this node
	effReply                       // m answers the external client at m.Origin
)

// effect is one recorded outbound effect. size is the packet size of
// the two kinds that leave on the wire.
type effect struct {
	kind effectKind
	m    actor.Msg
	node string
	size int
}

// maxFreeCtxs bounds a node's free list of contexts. One is out per
// handler whose effects have not flushed yet, so steady state needs
// about one per core; a burst past the cap is left to the GC.
const maxFreeCtxs = 64

// takeCtx readies a context for one handler invocation of a.
func (n *Node) takeCtx(a *actor.Actor, onNIC bool) *execCtx {
	c := n.freeCtx.Take()
	if c == nil {
		c = &execCtx{node: n}
		c.flushFn = c.flush
	}
	c.a, c.onNIC, c.extra = a, onNIC, 0
	return c
}

func (n *Node) putCtx(c *execCtx) {
	c.a = nil
	n.freeCtx.Put(c, maxFreeCtxs)
}

func (c *execCtx) charge(d sim.Time) {
	if !c.free {
		c.extra += d
	}
}

// emit records an outbound effect; OnInit contexts perform it at once.
func (c *execCtx) emit(e effect) {
	if c.free {
		c.node.perform(&e)
		return
	}
	c.effects = append(c.effects, e)
}

// finish ends the handler invocation: the recorded effects are scheduled
// to be performed when the modeled service completes, and the service
// time is returned. The context goes back to the node's free list once
// nothing refers to it — here, or after the flush.
func (c *execCtx) finish(service sim.Time) sim.Time {
	for i, v := range c.views {
		for j := range v {
			v[j] = invariant.PoisonByte
		}
		c.views[i] = nil
	}
	c.views = c.views[:0]
	if len(c.effects) == 0 {
		c.node.putCtx(c)
		return service
	}
	if service <= 0 {
		service = 1
	}
	c.node.eng.After(service, c.flushFn)
	return service
}

// flush performs the recorded effects in order.
func (c *execCtx) flush() {
	n := c.node
	for i := range c.effects {
		n.perform(&c.effects[i])
	}
	clear(c.effects) // do not pin the messages' payloads
	c.effects = c.effects[:0]
	n.putCtx(c)
}

// perform carries out one outbound effect.
func (n *Node) perform(e *effect) {
	switch e.kind {
	case effWire:
		n.sendWire(e.m, e.node, e.size)
	case effLocalNIC:
		n.deliverLocalFromNIC(e.m)
	case effLocalHost:
		n.deliverLocalFromHost(e.m)
	case effReply:
		resp := e.m
		resp.Reply = nil
		n.c.Net.Send(&netsim.Packet{
			Src: n.Name, Dst: e.m.Origin, Size: e.size,
			FlowID:  e.m.FlowID,
			Payload: RespEnvelope{Fn: e.m.Reply, Msg: resp},
		})
	}
}

// Now implements actor.Ctx.
func (c *execCtx) Now() sim.Time { return c.node.eng.Now() }

// Send implements actor.Ctx: asynchronous message to another actor,
// wherever it lives.
func (c *execCtx) Send(dst actor.ID, m actor.Msg) {
	n := c.node
	m.Src = c.a.ID
	m.Dst = dst
	ref, ok := n.c.Table.Lookup(dst)
	if !ok {
		n.Dropped++
		return
	}
	if ref.Node != n.Name {
		// Remote: serialize to the wire. Hardware-assisted messaging on
		// the NIC (Figure 6); DPDK/ring costs on the host.
		size := len(m.Data) + 48
		if size < 64 {
			size = 64
		}
		if c.onNIC {
			c.charge(n.NICModel.NICSendCost.Cost(size))
		} else if n.Offloaded() {
			// Host egress via the NIC: stage into the ring.
			c.charge(n.HostModel.RingTxOcc)
		} else {
			c.charge(n.HostModel.DPDKTxOcc)
		}
		m.Via = actor.ViaWire
		m.WireSize = int32(size)
		c.emit(effect{kind: effWire, m: m, node: ref.Node, size: size})
		return
	}
	// Local node. The destination side is re-resolved at flush time:
	// the target may migrate between handler execution and completion.
	switch {
	case c.onNIC && ref.OnNIC:
		c.charge(100 * sim.Nanosecond)
		c.emit(effect{kind: effLocalNIC, m: m})
	case c.onNIC && !ref.OnNIC:
		c.charge(150 * sim.Nanosecond)
		c.emit(effect{kind: effLocalNIC, m: m})
	case !c.onNIC && ref.OnNIC:
		c.charge(60*sim.Nanosecond + n.HostModel.RingTxOcc)
		c.emit(effect{kind: effLocalHost, m: m})
	default:
		c.charge(80 * sim.Nanosecond)
		c.emit(effect{kind: effLocalHost, m: m})
	}
}

// deliverLocalFromNIC routes a NIC-originated local message to wherever
// the destination lives now.
func (n *Node) deliverLocalFromNIC(m actor.Msg) {
	ref, ok := n.c.Table.Lookup(m.Dst)
	switch {
	case !ok:
		n.Dropped++
	case ref.Node != n.Name:
		n.sendRemote(m, ref.Node)
	case ref.OnNIC:
		m.Via = actor.ViaLocal
		n.Sched.Arrive(m)
	default:
		n.forwardToHost(m)
	}
}

// deliverLocalFromHost routes a host-originated local message.
func (n *Node) deliverLocalFromHost(m actor.Msg) {
	ref, ok := n.c.Table.Lookup(m.Dst)
	switch {
	case !ok:
		n.Dropped++
	case ref.Node != n.Name:
		n.sendRemote(m, ref.Node)
	case ref.OnNIC:
		n.hostToNIC(m)
	default:
		m.Via = actor.ViaLocal
		n.Host.Arrive(m)
	}
}

// Reply implements actor.Ctx: route a response to the external client
// that originated the request.
func (c *execCtx) Reply(m actor.Msg) {
	n := c.node
	if m.Reply == nil || m.Origin == "" {
		n.Dropped++
		return
	}
	size := int(m.WireSize)
	if size < 64 {
		size = 64
	}
	if c.onNIC {
		c.charge(n.NICModel.NICSendCost.Cost(size))
	} else if n.Offloaded() {
		c.charge(n.HostModel.RingTxOcc)
	} else {
		c.charge(n.HostModel.DPDKTxOcc)
	}
	c.emit(effect{kind: effReply, m: m, size: size})
}

// side returns where this execution's objects live.
func (c *execCtx) side() dmo.Side {
	if c.onNIC {
		return dmo.NIC
	}
	return dmo.Host
}

// dmoOverhead is the per-operation DMO address-translation cost (object
// ID → base address lookup), one of the three framework overheads the
// paper measures in §5.5.
func (c *execCtx) dmoOverhead(bytes int) sim.Time {
	if c.node.cfg.RawState {
		return 0
	}
	return 60*sim.Nanosecond + sim.Time(float64(bytes)*0.02)
}

// Alloc implements actor.Ctx.
func (c *execCtx) Alloc(size int) (uint64, error) {
	c.charge(200 * sim.Nanosecond)
	return c.node.Objects.Alloc(uint32(c.a.ID), size, c.side())
}

// Free implements actor.Ctx.
func (c *execCtx) Free(obj uint64) error {
	c.charge(150 * sim.Nanosecond)
	err := c.node.Objects.Free(uint32(c.a.ID), obj)
	c.note(err)
	return err
}

// ObjRead implements actor.Ctx: a view of the object's bytes, borrowed
// until the handler returns. Under the invariant checker the handler
// gets a private copy instead, overwritten with invariant.PoisonByte
// when it returns, so a view kept past the borrow reads as garbage at
// once rather than as whatever the object holds later. OnInit contexts
// never finish and hand out the view itself.
func (c *execCtx) ObjRead(obj uint64, off, n int) ([]byte, error) {
	c.charge(c.dmoOverhead(n))
	p, err := c.node.Objects.Read(uint32(c.a.ID), obj, off, n)
	c.note(err)
	if err == nil && c.node.chk != nil && !c.free {
		p = append(make([]byte, 0, n), p...)
		c.views = append(c.views, p)
	}
	return p, err
}

// ObjWrite implements actor.Ctx.
func (c *execCtx) ObjWrite(obj uint64, off int, p []byte) error {
	c.charge(c.dmoOverhead(len(p)))
	err := c.node.Objects.Write(uint32(c.a.ID), obj, off, p)
	c.note(err)
	return err
}

// ObjMigrate implements actor.Ctx: move one object across PCIe. The
// issuing core only stages the transfer; the bytes move at migration
// bandwidth in the background.
func (c *execCtx) ObjMigrate(obj uint64) (int, error) {
	to := dmo.Host
	if !c.onNIC {
		to = dmo.NIC
	}
	n, err := c.node.Objects.MigrateObject(uint32(c.a.ID), obj, to)
	c.note(err)
	if err != nil {
		return 0, err
	}
	c.charge(300 * sim.Nanosecond) // descriptor staging
	return n, nil
}

// note records isolation violations (wrong-actor accesses).
func (c *execCtx) note(err error) {
	if err == dmo.ErrWrongActor {
		c.node.Violations.Record(c.a.ID)
	}
}

// Accel implements actor.Ctx: invoke a hardware unit if this zone has
// one. Host cores report ok=false and the handler computes inline.
func (c *execCtx) Accel(name string, bytes, batch int) (sim.Time, bool) {
	if !c.onNIC || c.node.Accels == nil {
		return 0, false
	}
	cost, ok := c.node.Accels.Invoke(name, bytes, batch, nil)
	if !ok {
		return 0, false
	}
	c.charge(cost)
	return cost, true
}
