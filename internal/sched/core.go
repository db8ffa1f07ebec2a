package sched

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/obs"
	"repro/internal/sim"
)

// core is one NIC core running either the FCFS loop (ALG 1) or the DRR
// loop (ALG 2). Cores are event-driven state machines: kick() starts the
// loop when work may be available; the loop parks (idle=true) when it
// finds none.
type core struct {
	s    *Scheduler
	id   int
	mode coreMode
	idle bool
	// lane is the core's trace lane (unused while tracing is off).
	lane obs.TrackID

	// drrPos is this core's round-robin cursor into the runnable queue.
	drrPos int

	// Busy-time accounting.
	busyAccum sim.Time
	busyStart sim.Time
	busy      bool
	// winU is the busy fraction over the monitor's last window; winPrev
	// the accumulator snapshot at the previous monitor tick.
	winU    float64
	winPrev sim.Time

	// executed counts completed actor invocations on this core.
	executed uint64

	// op is the operation occupying the core. A core runs one operation
	// at a time, so its state lives here instead of in a closure per
	// occupy; the record and the two event callbacks are made on first
	// use, not in newCore — most cores of a large topology never run.
	op           *coreOp
	stepFn       func() // c.step
	occupyDoneFn func() // c.occupyDone
}

// opKind says how an occupy continues once its busy time has elapsed.
type opKind uint8

const (
	opNone     opKind = iota // the core is not occupied
	opStep                   // nothing to finish: run the loop again
	opExec                   // FCFS execution of m on a
	opForward                // host-bound m: hand to the Forward hook
	opBuffer                 // a is migrating: buffer m in its mailbox
	opToDRR                  // a is DRR-resident: move m to its mailbox
	opPark                   // exclusive a was busy: park m on it
	opExecDRR                // DRR execution of m on a
	opDispatch               // IOKernel dispatcher routed to worker
)

// coreOp is the in-service operation of one core.
type coreOp struct {
	kind    opKind
	a       *actor.Actor
	m       actor.Msg
	start   sim.Time
	service sim.Time
	worker  int
}

func newCore(s *Scheduler, id int) *core {
	return &core{s: s, id: id, mode: modeFCFS, idle: true}
}

func (c *core) setMode(m coreMode) {
	s := c.s
	if c.mode != m && s.sink != nil {
		s.sink.Instant(s.lane, fmt.Sprintf("core %d %s→%s", c.id, c.mode, m), s.eng.Now())
	}
	c.mode = m
	c.kick()
}

// kick schedules the core's loop if it is parked.
func (c *core) kick() {
	if !c.idle {
		return
	}
	c.idle = false
	if c.stepFn == nil {
		c.stepFn = c.step
	}
	c.s.eng.Defer(c.stepFn)
}

// occupy charges d of busy time, then continues as op.kind says.
// Occupying a core that already has an operation in service is a
// scheduler bug and panics.
func (c *core) occupy(d sim.Time, op coreOp) {
	if c.op == nil {
		c.op = new(coreOp)
		c.occupyDoneFn = c.occupyDone
	}
	if c.op.kind != opNone {
		panic("sched: core occupied while an operation is in service")
	}
	*c.op = op
	c.beginBusy()
	c.s.eng.After(d, c.occupyDoneFn)
}

// occupyDone fires when the busy time has elapsed. The operation is
// cleared before its continuation runs, because every continuation ends
// by occupying the core again or parking it.
func (c *core) occupyDone() {
	c.endBusy()
	op := *c.op
	*c.op = coreOp{}
	s, a, m := c.s, op.a, op.m
	switch op.kind {
	case opStep:
		c.step()
	case opExec:
		c.execDone(op)
	case opForward:
		s.Forwarded++
		s.observeFCFS(m)
		c.traceOp(nil, m, op.start, "")
		if s.hooks.Forward != nil {
			s.hooks.Forward(m)
		}
		c.afterOp()
	case opBuffer:
		// Migrating: buffer in the runtime mailbox; phase 4 forwards it.
		a.Mailbox.Push(m)
		c.afterOp()
	case opToDRR:
		// Re-check: the actor may have been upgraded back to FCFS
		// while this dispatch was in flight; its mailbox would then
		// never be drained.
		if a.InDRR {
			a.Mailbox.Push(m)
			s.wakeDRR()
		} else {
			s.queue.push(m)
			s.wakeFCFS()
		}
		c.afterOp()
	case opPark:
		if a.Running() > 0 || a.InDRR || a.State != actor.Stable {
			a.Mailbox.Push(m)
		} else {
			s.queue.push(m)
			s.wakeFCFS()
		}
		c.afterOp()
	case opExecDRR:
		c.execDRRDone(op)
	case opDispatch:
		if op.worker < len(s.cores) {
			s.cores[op.worker].kick()
		}
		c.step()
	}
}

func (c *core) beginBusy() {
	if !c.busy {
		c.busy = true
		c.busyStart = c.s.eng.Now()
	}
}

func (c *core) endBusy() {
	if c.busy {
		c.busy = false
		c.busyAccum += c.s.eng.Now() - c.busyStart
	}
}

// settle folds any in-progress busy period into the accumulator (for
// utilization snapshots).
func (c *core) settle() {
	if c.busy {
		now := c.s.eng.Now()
		c.busyAccum += now - c.busyStart
		c.busyStart = now
	}
}

// step is the core's main loop body.
func (c *core) step() {
	switch c.mode {
	case modeFCFS:
		c.stepFCFS()
	case modeDRR:
		c.stepDRR()
	case modeDispatch:
		c.stepDispatch()
	}
}

// stepDispatch is the IOKernel dispatcher loop (§3.2.6): drain the
// central ingress buffer into per-worker queues, one routing decision
// per dispatcherCost.
func (c *core) stepDispatch() {
	s := c.s
	q, ok := s.queue.(*iokQueue)
	if !ok {
		c.idle = true
		return
	}
	worker, any := q.dispatchOne()
	if !any {
		c.idle = true
		c.endBusy()
		return
	}
	c.occupy(dispatcherCost, coreOp{kind: opDispatch, worker: worker})
}

// stepFCFS implements ALG 1: fetch from the shared queue, dispatch to
// the target actor, run to completion; push DRR-resident actors'
// messages to their mailboxes instead.
func (c *core) stepFCFS() {
	s := c.s
	m, ok := s.queue.pop(c.id)
	if !ok {
		c.idle = true
		c.endBusy()
		return
	}
	tax := s.hooks.FwdTax(int(m.WireSize))
	a, resident := s.actors[m.Dst]
	switch {
	case !resident || a.State == actor.Gone || a.State == actor.Clean:
		// Host-bound traffic (or an actor that just left): forward.
		c.occupy(tax, coreOp{kind: opForward, m: m, start: s.eng.Now()})
	case a.State == actor.Prepare || a.State == actor.Ready:
		c.occupy(dispatchCost, coreOp{kind: opBuffer, a: a, m: m})
	case a.InDRR:
		c.occupy(tax+dispatchCost, coreOp{kind: opToDRR, a: a, m: m})
	default:
		if !a.TryAcquire() {
			// Exclusive actor busy on another core: park the message on
			// the actor; the releasing core drains it. (A naive requeue
			// would busy-spin the shared queue.)
			c.occupy(dispatchCost, coreOp{kind: opPark, a: a, m: m})
			return
		}
		c.execFCFS(a, m, tax)
	}
}

// execFCFS runs one message to completion and then drains any messages
// parked on the actor while it was exclusively held.
func (c *core) execFCFS(a *actor.Actor, m actor.Msg, tax sim.Time) {
	s := c.s
	start := s.eng.Now()
	service := tax + s.cfg.ExtraDispatch + s.hooks.Run(a, m)
	c.occupy(service, coreOp{kind: opExec, a: a, m: m, start: start, service: service})
}

func (c *core) execDone(op coreOp) {
	s, a, m := c.s, op.a, op.m
	c.executed++
	s.Completed++
	s.chk.Exec()
	sojourn := s.eng.Now() - m.ArrivedAt
	a.Observe(sojourn, op.service, int(m.WireSize))
	s.observeFCFS(m)
	c.traceOp(a, m, op.start, "")
	// ALG 1 lines 13–16: downgrade on tail breach. The group tail is
	// degenerate below two samples (stats.EWMA.Ready) — without the
	// guard the very first completion, whose "tail" is just its own
	// sojourn, could evict an actor the population never implicated.
	if s.cfg.TailThresh > 0 && s.fcfsStats.Ready() && s.fcfsStats.Tail() > s.cfg.TailThresh {
		s.downgrade()
	}
	if a.State == actor.Stable && !a.InDRR {
		if next, ok := a.Mailbox.Pop(); ok {
			// Keep the lock; run the parked message immediately.
			c.execFCFS(a, next, s.hooks.FwdTax(int(next.WireSize)))
			return
		}
	}
	a.Release()
	c.afterOp()
}

// afterOp runs the time-gated management duties and continues the loop.
func (c *core) afterOp() {
	c.s.maybeMonitor()
	c.step()
}

// observeFCFS records the sojourn time of one FCFS operation.
func (s *Scheduler) observeFCFS(m actor.Msg) {
	s.fcfsStats.Observe((s.eng.Now() - m.ArrivedAt).Micros())
}

// traceOp records an operation of c that began at start and ends now: a
// span on c's lane, named after a plus suffix or "forward" for a
// forward (a nil), and an execution's sojourn.
func (c *core) traceOp(a *actor.Actor, m actor.Msg, start sim.Time, suffix string) {
	s := c.s
	now := s.eng.Now()
	if a != nil && s.Sojourn != nil {
		s.Sojourn.Observe((now - m.ArrivedAt).Micros())
	}
	if s.sink == nil {
		return
	}
	args := obs.Args{Req: m.FlowID, HasReq: m.FlowID != 0, Bytes: int(m.WireSize), Wait: max(start-m.ArrivedAt, 0)}
	name := "forward"
	if a != nil {
		name = a.Label() + suffix
		args.Shard, args.HasShard = a.Shard, a.Sharded
	}
	s.sink.Span(c.lane, name, start, now, args)
}

// stepDRR implements ALG 2: scan runnable actors round-robin, crediting
// each visited non-empty actor with its quantum and executing one
// request when the deficit covers the actor's estimated latency.
func (c *core) stepDRR() {
	s := c.s
	n := len(s.drrRunnable)
	if n == 0 {
		c.idle = true
		c.endBusy()
		// No runnable actors: this core is only useful as FCFS again;
		// the scheduler collapses DRR cores on upgrade, but an actor may
		// also have been migrated away — collapse here too.
		s.collapseDRRCores()
		return
	}
	// Visit up to n actors; if none can execute, park until new mail.
	for i := 0; i < n; i++ {
		if len(s.drrRunnable) == 0 {
			break
		}
		c.drrPos %= len(s.drrRunnable)
		a := s.drrRunnable[c.drrPos]
		c.drrPos++
		s.chk.DRRVisit(s.chkLabel, c.id, uint32(a.ID))
		if a.Mailbox.Len() == 0 {
			a.Deficit = 0 // ALG 2 lines 15–17
			continue
		}
		if a.State != actor.Stable {
			continue
		}
		// Update deficit with the actor's quantum.
		q := sim.Microsecond
		if s.hooks.Quantum != nil {
			q = s.hooks.Quantum(int(a.SizeStats.Mean()))
		}
		a.Deficit += q
		est := sim.Micros(a.ServiceStats.Mean())
		if a.Deficit <= est {
			// Not enough credit yet; the scan itself costs time.
			c.occupy(scanCost, coreOp{kind: opStep})
			return
		}
		if !a.TryAcquire() {
			continue
		}
		m, _ := a.Mailbox.Pop()
		a.Deficit -= est
		start := s.eng.Now()
		service := s.hooks.Run(a, m)
		c.occupy(scanCost+service, coreOp{kind: opExecDRR, a: a, m: m, start: start, service: service})
		return
	}
	// Every runnable actor had an empty mailbox (or was busy elsewhere).
	c.idle = true
	c.endBusy()
}

func (c *core) execDRRDone(op coreOp) {
	s, a, m := c.s, op.a, op.m
	a.Release()
	c.executed++
	s.Completed++
	s.chk.Exec()
	sojourn := s.eng.Now() - m.ArrivedAt
	a.Observe(sojourn, op.service, int(m.WireSize))
	c.traceOp(a, m, op.start, " [drr]")
	// ALG 2 lines 10–12: upgrade on tail recovery. A truly empty
	// FCFS group (zero samples) has no tail problem and may accept
	// the actor back; but with exactly one sample Tail collapses to
	// the bare mean, which is not evidence of recovery — hold off
	// until the estimate is Ready().
	if !s.cfg.AllDRR && s.cfg.TailThresh > 0 &&
		(s.fcfsStats.Count() == 0 || s.fcfsStats.Ready()) &&
		s.fcfsStats.Tail() < (1-alpha)*s.cfg.TailThresh {
		s.upgrade()
	}
	c.s.maybeMonitor()
	// ALG 2 lines 18–20: mailbox overflow forces migration.
	if s.hooks.PushToHost != nil && a.Mailbox.Len() > qThresh &&
		!s.migrationInFlight && a.State == actor.Stable && !a.PinNIC {
		s.push(a)
	}
	c.step()
}
