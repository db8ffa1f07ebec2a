// Package hostsim models the host side of an iPipe node: a pool of
// beefy Xeon cores running a decentralized multi-queue scheduler
// (§3.2.1: per-core queues with NIC-side flow steering), executing
// host-resident actors and, for the baselines, entire DPDK applications.
//
// Host CPU usage — the headline metric of Figures 13 and 17 — is the
// measured busy-core integral over the run, i.e. "how many cores' worth
// of cycles did this workload consume".
package hostsim

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Hooks connects the host scheduler to the node runtime.
type Hooks struct {
	// Run executes a host-resident actor's handler and returns the
	// host-core service time (already scaled for the host's speed).
	Run func(a *actor.Actor, m actor.Msg) sim.Time
	// Unowned handles a message whose target actor is not host-resident
	// (e.g. it migrated back to the NIC mid-flight). Optional.
	Unowned func(m actor.Msg)
}

// Config sizes the host.
type Config struct {
	Cores int
	// Steal enables ZygOS-style work stealing between the per-core
	// queues (the paper cites it for repairing steering imbalance).
	Steal bool
	// PollCost is charged per dequeued message (ring polling, epoll).
	PollCost sim.Time
}

// Host is the host-side execution engine of one node.
type Host struct {
	eng   *sim.Engine
	cfg   Config
	hooks Hooks

	queues []actor.MsgFIFO
	cores  []*hcore
	actors map[actor.ID]*actor.Actor

	// sink traces the cores' executions (nil: tracing off).
	sink *obs.Sink
	// Sojourn, when set, receives each completed execution's sojourn
	// (arrival to completion) in microseconds.
	Sojourn *obs.Histogram

	// Completed counts executed messages; Steals counts stolen ones.
	Completed uint64
	steals    uint64
}

type hcore struct {
	h    *Host
	id   int
	idle bool
	// lane is the core's trace lane (unused while tracing is off).
	lane obs.TrackID

	busyAccum sim.Time
	busyStart sim.Time
	busy      bool

	executed uint64

	// op is the operation occupying the core: one at a time, so its state
	// lives here instead of in a closure per occupy. The record and the
	// two event callbacks are made on first use, not in New — a host has
	// dozens of cores and most deployments wake only a few.
	op           *hostOp
	stepFn       func() // c.step
	occupyDoneFn func() // c.occupyDone
}

// opKind says how an occupy continues once its busy time has elapsed.
type opKind uint8

const (
	opNone    opKind = iota // the core is not occupied
	opUnowned               // m's actor is not host-resident
	opPark                  // exclusive a was busy: park m on it
	opExec                  // execution of m on a
)

// hostOp is the in-service operation of one core.
type hostOp struct {
	kind    opKind
	a       *actor.Actor
	m       actor.Msg
	start   sim.Time
	service sim.Time
}

// New builds a host with the given configuration.
func New(eng *sim.Engine, cfg Config, hooks Hooks) *Host {
	if cfg.Cores <= 0 {
		panic("hostsim: need at least one core")
	}
	if hooks.Run == nil {
		panic("hostsim: Run hook required")
	}
	if cfg.PollCost == 0 {
		cfg.PollCost = 100 * sim.Nanosecond
	}
	h := &Host{
		eng:    eng,
		cfg:    cfg,
		hooks:  hooks,
		queues: make([]actor.MsgFIFO, cfg.Cores),
		actors: map[actor.ID]*actor.Actor{},
	}
	for i := 0; i < cfg.Cores; i++ {
		h.cores = append(h.cores, &hcore{h: h, id: i, idle: true})
	}
	return h
}

// Observe records every execution as a span on its core's "host core
// i" lane in group g, through sk; a nil sink leaves tracing off.
func (h *Host) Observe(sk *obs.Sink, g obs.GroupID) {
	if sk == nil {
		return
	}
	h.sink = sk
	for _, c := range h.cores {
		c.lane = sk.NewTrack(g, fmt.Sprintf("host core %d", c.id))
	}
}

// AddActor registers a host-resident actor.
func (h *Host) AddActor(a *actor.Actor) {
	h.actors[a.ID] = a
	a.State = actor.Stable
}

// RemoveActor deregisters an actor (e.g. pulled back to the NIC).
func (h *Host) RemoveActor(id actor.ID) { delete(h.actors, id) }

// LeastLoadedActor returns the host actor with the smallest load, the
// pull-migration candidate (§3.2.5); nil when none is eligible. Ties
// break by actor ID: the selection must not depend on map iteration
// order, or runs stop being reproducible.
func (h *Host) LeastLoadedActor() *actor.Actor {
	var best *actor.Actor
	for _, a := range h.actors {
		if a.PinHost || a.State != actor.Stable {
			continue
		}
		if best == nil || a.Load() < best.Load() ||
			(a.Load() == best.Load() && a.ID < best.ID) {
			best = a
		}
	}
	return best
}

// Arrive steers a message to a core queue by flow hash and wakes the
// core. This is the NIC-side flow steering of the paper's host model.
func (h *Host) Arrive(m actor.Msg) {
	m.ArrivedAt = h.eng.Now()
	i := int(m.FlowID % uint64(h.cfg.Cores))
	h.queues[i].Push(m)
	h.cores[i].kick()
	if h.cfg.Steal {
		// An idle core may steal immediately.
		for _, c := range h.cores {
			if c.idle {
				c.kick()
				break
			}
		}
	}
}

// Backlog reports queued messages across all cores.
func (h *Host) Backlog() int {
	n := 0
	for i := range h.queues {
		n += h.queues[i].Len()
	}
	return n
}

// busyCoreSeconds returns the integral of busy cores over virtual time,
// in core-seconds. Divide by elapsed seconds for "cores used".
func (h *Host) busyCoreSeconds() float64 {
	var total sim.Time
	now := h.eng.Now()
	for _, c := range h.cores {
		total += c.busyAccum
		if c.busy {
			total += now - c.busyStart
		}
	}
	return total.Seconds()
}

// CoresUsed returns average busy cores since t=0.
func (h *Host) CoresUsed() float64 {
	el := h.eng.Now().Seconds()
	if el <= 0 {
		return 0
	}
	return h.busyCoreSeconds() / el
}

func (c *hcore) kick() {
	if !c.idle {
		return
	}
	c.idle = false
	if c.stepFn == nil {
		c.stepFn = c.step
	}
	c.h.eng.Defer(c.stepFn)
}

func (c *hcore) pop() (actor.Msg, bool) {
	h := c.h
	if m, ok := h.queues[c.id].Pop(); ok {
		return m, true
	}
	if !h.cfg.Steal {
		return actor.Msg{}, false
	}
	victim, best := -1, 0
	for i := range h.queues {
		if n := h.queues[i].Len(); i != c.id && n > best {
			victim, best = i, n
		}
	}
	if victim == -1 {
		return actor.Msg{}, false
	}
	// A classic tail steal: the victim's *newest* message. That runs a
	// flow's latest request ahead of its queued predecessors — the same
	// per-flow-FIFO hazard sched.shuffleQueue had and fixed by stealing
	// the head. Left as is here because fixing it reorders host
	// executions, which moves every fingerprint with a busy host.
	m, _ := h.queues[victim].PopTail()
	h.steals++
	return m, true
}

func (c *hcore) step() {
	h := c.h
	m, ok := c.pop()
	if !ok {
		c.idle = true
		c.endBusy()
		return
	}
	a, resident := h.actors[m.Dst]
	if !resident {
		c.occupy(h.cfg.PollCost, hostOp{kind: opUnowned, m: m})
		return
	}
	if !a.TryAcquire() {
		// Exclusive actor busy elsewhere: park on the actor; the
		// releasing core drains (a requeue would busy-spin).
		c.occupy(h.cfg.PollCost, hostOp{kind: opPark, a: a, m: m})
		return
	}
	c.exec(a, m)
}

// exec runs one message and then drains messages parked while the actor
// was exclusively held.
func (c *hcore) exec(a *actor.Actor, m actor.Msg) {
	h := c.h
	start := h.eng.Now()
	service := h.cfg.PollCost + h.hooks.Run(a, m)
	c.occupy(service, hostOp{kind: opExec, a: a, m: m, start: start, service: service})
}

// occupy charges d of busy time, then continues as op.kind says.
// Occupying a core that already has an operation in service is a bug
// and panics.
func (c *hcore) occupy(d sim.Time, op hostOp) {
	if c.op == nil {
		c.op = new(hostOp)
		c.occupyDoneFn = c.occupyDone
	}
	if c.op.kind != opNone {
		panic("hostsim: core occupied while an operation is in service")
	}
	*c.op = op
	if !c.busy {
		c.busy = true
		c.busyStart = c.h.eng.Now()
	}
	c.h.eng.After(d, c.occupyDoneFn)
}

// occupyDone fires when the busy time has elapsed. The operation is
// cleared before its continuation runs, because every continuation ends
// by occupying the core again or parking it.
func (c *hcore) occupyDone() {
	c.endBusy()
	op := *c.op
	*c.op = hostOp{}
	h, a, m := c.h, op.a, op.m
	switch op.kind {
	case opUnowned:
		if h.hooks.Unowned != nil {
			h.hooks.Unowned(m)
		}
		c.step()
	case opPark:
		if a.Running() > 0 {
			a.Mailbox.Push(m)
		} else {
			h.queues[c.id].Push(m)
		}
		c.step()
	case opExec:
		c.executed++
		h.Completed++
		a.Observe(h.eng.Now()-m.ArrivedAt, op.service, int(m.WireSize))
		c.trace(a, m, op.start)
		if next, ok := a.Mailbox.Pop(); ok {
			c.exec(a, next)
			return
		}
		a.Release()
		c.step()
	}
}

// trace records m's execution on a, begun at start and ending now: its
// sojourn and a span on c's lane.
func (c *hcore) trace(a *actor.Actor, m actor.Msg, start sim.Time) {
	h := c.h
	now := h.eng.Now()
	if h.Sojourn != nil {
		h.Sojourn.Observe((now - m.ArrivedAt).Micros())
	}
	if h.sink == nil {
		return
	}
	h.sink.Span(c.lane, a.Label(), start, now, obs.Args{Req: m.FlowID, HasReq: m.FlowID != 0,
		Bytes: int(m.WireSize), Wait: max(start-m.ArrivedAt, 0), Shard: a.Shard, HasShard: a.Sharded})
}

func (c *hcore) endBusy() {
	if c.busy {
		c.busy = false
		c.busyAccum += c.h.eng.Now() - c.busyStart
	}
}
