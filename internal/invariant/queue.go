package invariant

// This file holds the two stateful sub-trackers: the per-flow FIFO
// audit over ingress queues and the DRR round-fairness tracker. Both
// follow the package's nil-receiver discipline so the scheduler hot
// path stays free when checking is off.

// QueueAudit verifies per-flow FIFO and no-loss/no-duplication for one
// ingress queue (§3.2.6: flow steering exists precisely to keep a
// flow's requests ordered; work stealing must not undo it). The queue
// implementation stamps each pushed message with the sequence number
// Push returns and reports it back on Pop; the audit then checks that
// within every flow, messages leave in the order they entered, that
// nothing is popped twice, and that nothing is popped that was never
// pushed.
type QueueAudit struct {
	chk   *Checker
	label string

	nextSeq uint64
	// pending maps a flow to the queued sequence numbers in push order.
	pending map[uint64][]uint64
}

// NewQueueAudit creates an audit reporting into the checker. A nil
// checker yields a nil audit, whose methods are no-ops.
func (c *Checker) NewQueueAudit(label string) *QueueAudit {
	if c == nil {
		return nil
	}
	return &QueueAudit{chk: c, label: label, pending: map[uint64][]uint64{}}
}

// Push records a message entering the queue and returns its audit
// sequence number (0 when disabled; real sequences start at 1).
func (a *QueueAudit) Push(flow uint64) uint64 {
	if a == nil {
		return 0
	}
	a.nextSeq++
	a.pending[flow] = append(a.pending[flow], a.nextSeq)
	a.chk.queuePushes++
	return a.nextSeq
}

// Pop records a message leaving the queue and checks flow order.
func (a *QueueAudit) Pop(flow, seq uint64) {
	if a == nil {
		return
	}
	a.chk.queuePops++
	a.chk.checks++
	q := a.pending[flow]
	if len(q) == 0 {
		a.chk.violate("queue-fifo",
			"%s: flow %d popped seq %d with nothing queued (lost or duplicated)",
			a.label, flow, seq)
		return
	}
	if q[0] != seq {
		a.chk.violate("queue-fifo",
			"%s: flow %d popped seq %d before seq %d (per-flow FIFO broken)",
			a.label, flow, seq, q[0])
		// Resynchronize on the popped message so one reorder does not
		// cascade into a violation per subsequent pop.
		for i, s := range q {
			if s == seq {
				a.pending[flow] = append(q[:i], q[i+1:]...)
				return
			}
		}
		a.chk.violate("queue-fifo",
			"%s: flow %d popped seq %d that was never pushed", a.label, flow, seq)
		return
	}
	a.pending[flow] = q[1:]
	if len(a.pending[flow]) == 0 {
		delete(a.pending, flow)
	}
}

// --- DRR round fairness --------------------------------------------------

// drrSched tracks one scheduler's runnable set and per-core rounds.
type drrSched struct {
	eligible map[uint32]bool
	cores    map[int]*drrRound
}

// drrRound is one DRR core's current scan round: which runnable actors
// its cursor has passed, and which joined the queue since the round
// began (exempt until the next round — ALG 2 appends new actors at the
// tail, so a cursor past that point legitimately misses them once).
type drrRound struct {
	visited map[uint32]bool
	fresh   map[uint32]bool
}

func (c *Checker) drrState(label string) *drrSched {
	s := c.drr[label]
	if s == nil {
		s = &drrSched{eligible: map[uint32]bool{}, cores: map[int]*drrRound{}}
		c.drr[label] = s
	}
	return s
}

// DRRAdd records an actor entering the runnable queue (downgrade, or
// registration under AllDRR).
func (c *Checker) DRRAdd(label string, id uint32) {
	if c == nil {
		return
	}
	s := c.drrState(label)
	s.eligible[id] = true
	for _, r := range s.cores {
		r.fresh[id] = true
	}
}

// DRRRemove records an actor leaving the runnable queue (upgrade,
// migration, kill).
func (c *Checker) DRRRemove(label string, id uint32) {
	if c == nil {
		return
	}
	s := c.drrState(label)
	delete(s.eligible, id)
	for _, r := range s.cores {
		delete(r.visited, id)
		delete(r.fresh, id)
	}
}

// DRRVisit records a core's cursor passing an actor. Fairness (ALG 2's
// round robin): within one core's scan stream, no actor is visited a
// second time while another eligible actor — present since the round
// began — has not been visited at all. The second visit marks the round
// boundary; anything still unvisited at that point was skipped, which
// is exactly what a stale cursor after a runnable-queue removal does.
func (c *Checker) DRRVisit(label string, coreID int, id uint32) {
	if c == nil {
		return
	}
	c.drrVisits++
	s := c.drrState(label)
	r := s.cores[coreID]
	if r == nil {
		r = &drrRound{visited: map[uint32]bool{}, fresh: map[uint32]bool{}}
		s.cores[coreID] = r
	}
	if !r.visited[id] {
		r.visited[id] = true
		return
	}
	// Round boundary: the cursor wrapped back to an already-visited
	// actor. Every actor eligible for the whole round must have been
	// seen. Iterate deterministically for stable violation text.
	c.checks++
	var skipped []uint32
	for e := range s.eligible {
		if !r.visited[e] && !r.fresh[e] {
			skipped = append(skipped, e)
		}
	}
	if len(skipped) > 0 {
		min := skipped[0]
		for _, e := range skipped[1:] {
			if e < min {
				min = e
			}
		}
		c.violate("drr-fairness",
			"%s core %d: actor %d visited twice before actor %d was visited once",
			label, coreID, id, min)
	}
	r.visited = map[uint32]bool{id: true}
	r.fresh = map[uint32]bool{}
}
