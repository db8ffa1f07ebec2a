package sched

import (
	"repro/internal/actor"
	"repro/internal/invariant"
	"repro/internal/sim"
)

// inQueue abstracts the ingress path feeding FCFS cores. On-path NICs
// have a hardware traffic manager providing a shared queue with
// negligible synchronization cost (I2); off-path NICs get a software
// shuffle layer: per-core queues steered by flow with ZygOS-style work
// stealing when a core runs dry (§3.2.6).
type inQueue interface {
	push(m actor.Msg)
	// pop fetches the next message for the given core.
	pop(coreID int) (actor.Msg, bool)
	len() int
	// setAudit attaches the per-flow FIFO audit (nil = disabled).
	setAudit(a *invariant.QueueAudit)
}

// stampedFIFO is a message FIFO with the audit stamps of its messages
// kept beside it rather than in them. While a QueueAudit is attached,
// every put records the stamp its Push returned (real stamps start at 1)
// and every take returns it, in lockstep with the messages; with none
// attached the stamps are 0, the stamp FIFO stays empty, and take finds
// it so. The audit is attached before the first push
// (Scheduler.Observe), so the two FIFOs never fall out of step.
type stampedFIFO struct {
	msgs   actor.MsgFIFO
	stamps sim.FIFO[uint64]
}

func (f *stampedFIFO) put(m actor.Msg, stamp uint64) {
	if stamp != 0 {
		f.stamps.Push(stamp)
	}
	f.msgs.Push(m)
}

func (f *stampedFIFO) take() (actor.Msg, uint64, bool) {
	m, ok := f.msgs.Pop()
	var stamp uint64
	if ok {
		stamp, _ = f.stamps.Pop()
	}
	return m, stamp, ok
}

func (f *stampedFIFO) len() int { return f.msgs.Len() }

// sharedQueue is the hardware traffic manager model: one FIFO, any core.
type sharedQueue struct {
	q     stampedFIFO
	audit *invariant.QueueAudit
}

func newSharedQueue() *sharedQueue { return &sharedQueue{} }

func (s *sharedQueue) push(m actor.Msg) {
	s.q.put(m, s.audit.Push(m.FlowID))
}

func (s *sharedQueue) pop(int) (actor.Msg, bool) {
	m, stamp, ok := s.q.take()
	if ok {
		s.audit.Pop(m.FlowID, stamp)
	}
	return m, ok
}

func (s *sharedQueue) len() int { return s.q.len() }

func (s *sharedQueue) setAudit(a *invariant.QueueAudit) { s.audit = a }

// shuffleQueue is the software alternative: a single-producer,
// multi-consumer shuffle layer steering flows to per-core queues, with
// work stealing to repair the load imbalance flow steering causes.
type shuffleQueue struct {
	perCore []stampedFIFO
	audit   *invariant.QueueAudit
	// steals counts stolen messages, exposing the imbalance repair rate.
	steals uint64
}

func newShuffleQueue(cores int) *shuffleQueue {
	if cores < 1 {
		// A degenerate group (dispatcher-less config asking for zero
		// steered queues) still needs one bucket, or push's FlowID
		// modulus divides by zero.
		cores = 1
	}
	return &shuffleQueue{perCore: make([]stampedFIFO, cores)}
}

func (s *shuffleQueue) push(m actor.Msg) {
	i := int(m.FlowID % uint64(len(s.perCore)))
	s.perCore[i].put(m, s.audit.Push(m.FlowID))
}

func (s *shuffleQueue) pop(coreID int) (actor.Msg, bool) {
	n := len(s.perCore)
	if coreID >= n {
		coreID = coreID % n
	}
	if m, stamp, ok := s.perCore[coreID].take(); ok {
		s.audit.Pop(m.FlowID, stamp)
		return m, true
	}
	// Steal from the longest victim queue. Take the victim's *oldest*
	// message: all of a flow's messages sit in one steered queue in
	// arrival order, so stealing the head preserves per-flow FIFO, while
	// a classic tail steal would run a flow's newest request ahead of
	// its queued predecessors (§3.2.6 steers flows precisely to keep
	// them ordered).
	victim, best := -1, 0
	for i := range s.perCore {
		if i != coreID && s.perCore[i].len() > best {
			victim, best = i, s.perCore[i].len()
		}
	}
	if victim == -1 {
		return actor.Msg{}, false
	}
	m, stamp, _ := s.perCore[victim].take()
	s.steals++
	s.audit.Pop(m.FlowID, stamp)
	return m, true
}

func (s *shuffleQueue) len() int {
	n := 0
	for i := range s.perCore {
		n += s.perCore[i].len()
	}
	return n
}

func (s *shuffleQueue) setAudit(a *invariant.QueueAudit) { s.audit = a }

// iokQueue is the second §3.2.6 alternative for NICs without a hardware
// traffic manager: a Shenango-IOKernel-style design where one dedicated
// core drains a central ingress buffer and distributes messages to
// per-worker queues. The dispatcher core is lost to actor execution;
// workers read only their own queue (no stealing — the dispatcher is
// responsible for balance).
type iokQueue struct {
	central stampedFIFO
	perCore []stampedFIFO
	audit   *invariant.QueueAudit
	// flows pins a flow with queued messages to its worker: routing by
	// queue depth alone would scatter one flow across workers draining
	// at different rates, reordering it. A flow re-routes (rebalances)
	// only once its queued messages have drained.
	flows map[uint64]*iokFlow
	// dispatched counts messages routed by the dispatcher core.
	dispatched uint64
}

type iokFlow struct {
	worker  int
	pending int
}

func newIOKQueue(workers int) *iokQueue {
	return &iokQueue{perCore: make([]stampedFIFO, workers), flows: map[uint64]*iokFlow{}}
}

func (q *iokQueue) push(m actor.Msg) {
	q.central.put(m, q.audit.Push(m.FlowID))
}

// pop serves a worker core from its own queue only.
func (q *iokQueue) pop(coreID int) (actor.Msg, bool) {
	if coreID >= len(q.perCore) {
		return actor.Msg{}, false // the dispatcher core never executes
	}
	m, stamp, ok := q.perCore[coreID].take()
	if !ok {
		return actor.Msg{}, false
	}
	if fl := q.flows[m.FlowID]; fl != nil {
		fl.pending--
		if fl.pending == 0 {
			delete(q.flows, m.FlowID)
		}
	}
	q.audit.Pop(m.FlowID, stamp)
	return m, true
}

// dispatchOne moves one message from the central buffer to a worker
// queue: the flow's pinned worker while it has messages queued, else
// the least-loaded worker (lowest index on ties, keeping routing
// deterministic).
func (q *iokQueue) dispatchOne() (int, bool) {
	m, stamp, ok := q.central.take()
	if !ok {
		return 0, false
	}
	fl := q.flows[m.FlowID]
	if fl == nil {
		best := 0
		for i := 1; i < len(q.perCore); i++ {
			if q.perCore[i].len() < q.perCore[best].len() {
				best = i
			}
		}
		fl = &iokFlow{worker: best}
		q.flows[m.FlowID] = fl
	}
	fl.pending++
	q.perCore[fl.worker].put(m, stamp)
	q.dispatched++
	return fl.worker, true
}

func (q *iokQueue) len() int {
	n := q.central.len()
	for i := range q.perCore {
		n += q.perCore[i].len()
	}
	return n
}

func (q *iokQueue) setAudit(a *invariant.QueueAudit) { q.audit = a }
