package rkv

import (
	"encoding/binary"
	"sort"

	"repro/internal/actor"
	"repro/internal/sim"
)

// Multi-Paxos consensus actor (§4): a distinguished leader receives
// client requests and coordinates accept/learn rounds over a replicated
// ordered log; in the common case consensus for a log instance needs a
// single round of accepts, and the committed command is disseminated
// with a learning round. On leader failure, a replica runs the
// two-phase prepare/promise election, picks the next available log
// instance, and fills gaps from the promises.

// slot is one log instance on a replica, stored by value in its page.
// payload is the instance's encoded (inst, ballot, cmd): the one the
// leader made, or a view of the accept or learn a follower received —
// a payload is never rewritten after Send (actor.Msg.Data) — and it is
// byte-identical to encPaxos(inst, ballot, cmd), so commit sends it
// again as the learn and prepare copies it into the promise. The zero
// slot is an absent instance: every slot the protocol writes is
// accepted, committed or both.
type slot struct {
	payload   []byte
	acks      int // leader: phase-2 acks counted, self included
	accepted  bool
	committed bool
}

func (s *slot) present() bool  { return s.accepted || s.committed }
func (s *slot) ballot() uint64 { return binary.LittleEndian.Uint64(s.payload[8:]) }
func (s *slot) cmd() []byte    { return s.payload[16:] }

// logPageSlots is the number of instances one log page holds (the dmo
// object table's page size).
const logPageSlots = 512

type logPage struct {
	key   uint64 // inst / logPageSlots
	slots [logPageSlots]slot
}

// paxosLog is a replica's log: fixed pages of slots, keyed by
// inst/logPageSlots in a map rather than a directory indexed by
// instance, so an instance number — forged ones included — costs at
// most one fixed-size page and never sizes an allocation. order lists
// the pages by ascending key: the walks that build payloads visit
// instances in ascending order without sorting, so their bytes never
// depend on map iteration order.
type paxosLog struct {
	pages map[uint64]*logPage
	order []*logPage
}

// find returns inst's slot, or nil when its page was never made. A
// non-nil slot may still be absent.
func (l *paxosLog) find(inst uint64) *slot {
	if p := l.pages[inst/logPageSlots]; p != nil {
		return &p.slots[inst%logPageSlots]
	}
	return nil
}

// at returns inst's slot, making its page on first use.
func (l *paxosLog) at(inst uint64) *slot {
	k := inst / logPageSlots
	p := l.pages[k]
	if p == nil {
		if l.pages == nil {
			l.pages = map[uint64]*logPage{}
		}
		p = &logPage{key: k}
		l.pages[k] = p
		i := sort.Search(len(l.order), func(i int) bool { return l.order[i].key > k })
		l.order = append(l.order, nil)
		copy(l.order[i+1:], l.order[i:])
		l.order[i] = p
	}
	return &p.slots[inst%logPageSlots]
}

// each calls fn on every present slot in ascending instance order.
func (l *paxosLog) each(fn func(inst uint64, s *slot)) {
	for _, p := range l.order {
		for i := range p.slots {
			if s := &p.slots[i]; s.present() {
				fn(p.key*logPageSlots+uint64(i), s)
			}
		}
	}
}

// Consensus is a replica's consensus actor.
type Consensus struct {
	Actor *actor.Actor

	peers    []actor.ID // consensus actors of the other replicas
	memtable actor.ID   // local Memtable actor

	// IsLeader marks the distinguished proposer.
	IsLeader bool
	// ballotOffset is this replica's residue in the ballot space: replica
	// k of an n-replica group elects only with ballots ≡ k (mod n), so
	// concurrent candidates can never collide on a ballot number. Deploy
	// sets it to the replica index.
	ballotOffset uint64
	ballot       uint64
	promised     uint64
	log          paxosLog
	// inflight holds the leader's client request per instance proposed
	// and not yet committed: commit takes it to reply, and an election
	// that re-proposes the instance drops it.
	inflight map[uint64]actor.Msg
	next     uint64 // next instance to allocate (leader)

	// Election bookkeeping: merged holds, per instance, the
	// highest-ballot entry among the candidate's own log and the
	// promises so far (payload views, accepted set).
	electing  bool
	promises  int
	merged    paxosLog
	onElected func()

	// OnLead, if set, observes every leadership claim with the winning
	// ballot (including the initial leader's implicit ballot-1 claim,
	// reported by the deployer). The invariant checker uses it to enforce
	// single-leader-per-ballot across a replica group.
	OnLead func(ballot uint64)

	// Commits and Redirects count outcomes.
	Commits   uint64
	Redirects uint64
}

// paxos wire format helpers: inst(8) ballot(8) cmd...
func encPaxos(inst, ballot uint64, cmd []byte) []byte {
	out := make([]byte, 16+len(cmd))
	binary.LittleEndian.PutUint64(out, inst)
	binary.LittleEndian.PutUint64(out[8:], ballot)
	copy(out[16:], cmd)
	return out
}

func decPaxos(p []byte) (inst, ballot uint64, cmd []byte, ok bool) {
	if len(p) < 16 {
		return 0, 0, nil, false
	}
	return binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:]), p[16:], true
}

// NewConsensus builds a consensus actor. leader marks the initial
// distinguished proposer.
func NewConsensus(id actor.ID, peers []actor.ID, memtable actor.ID, leader bool) *Consensus {
	c := &Consensus{
		peers:    peers,
		memtable: memtable,
		IsLeader: leader,
		ballot:   1,
		inflight: map[uint64]actor.Msg{},
	}
	a := &actor.Actor{
		ID:        id,
		Name:      "rkv-consensus",
		Exclusive: true,
		MemBound:  0.15, // protocol state is small (Table 3: replication 1.9µs)
	}
	a.OnMessage = c.onMessage
	c.Actor = a
	return c
}

func (c *Consensus) majority() int { return (len(c.peers)+1)/2 + 1 }

func (c *Consensus) onMessage(ctx actor.Ctx, m actor.Msg) sim.Time {
	switch m.Kind {
	case KindReq:
		return c.clientReq(ctx, m)
	case kindAccept:
		return c.accept(ctx, m)
	case kindAccepted:
		return c.accepted(ctx, m)
	case kindLearn:
		return c.learn(ctx, m)
	case kindPrepare:
		return c.prepare(ctx, m)
	case kindPromise:
		return c.promise(ctx, m)
	case KindElect:
		c.startElection(ctx, nil)
		return 1500 * sim.Nanosecond
	}
	return 200 * sim.Nanosecond
}

func (c *Consensus) clientReq(ctx actor.Ctx, m actor.Msg) sim.Time {
	cmd, ok := decodeCmd(m.Data)
	if !ok {
		resp := m
		resp.Data = statusNotFound
		ctx.Reply(resp)
		return 300 * sim.Nanosecond
	}
	if cmd.op == opGet {
		// Reads are served by the local store path (leader leases make
		// this safe in the common case); forward with Reply intact.
		ctx.Send(c.memtable, actor.Msg{
			Kind: kindGet, Data: m.Data,
			Origin: m.Origin, Reply: m.Reply, WireSize: m.WireSize, FlowID: m.FlowID,
		})
		return 500 * sim.Nanosecond
	}
	if !c.IsLeader {
		c.Redirects++
		resp := m
		resp.Data = statusRedirect
		ctx.Reply(resp)
		return 400 * sim.Nanosecond
	}
	inst := c.next
	c.next++
	s := c.log.at(inst)
	*s = slot{payload: encPaxos(inst, c.ballot, m.Data), acks: 1, accepted: true}
	c.inflight[inst] = m
	for _, p := range c.peers {
		ctx.Send(p, actor.Msg{Kind: kindAccept, Data: s.payload})
	}
	if s.acks >= c.majority() {
		c.commit(ctx, inst, s)
	}
	return 900 * sim.Nanosecond
}

// accept is the follower's phase-2 handler. The slot keeps the accept
// itself, and the reply is its 16-byte header — the bytes
// encPaxos(inst, ballot, nil) would make.
func (c *Consensus) accept(ctx actor.Ctx, m actor.Msg) sim.Time {
	inst, ballot, _, ok := decPaxos(m.Data)
	if !ok || ballot < c.promised {
		return 300 * sim.Nanosecond
	}
	c.stepDown(ballot)
	s := c.log.at(inst)
	s.payload = m.Data
	s.accepted = true
	ctx.Send(m.Src, actor.Msg{Kind: kindAccepted, Data: m.Data[:16:16]})
	return 700 * sim.Nanosecond
}

// accepted is the leader counting phase-2 acks.
func (c *Consensus) accepted(ctx actor.Ctx, m actor.Msg) sim.Time {
	inst, ballot, _, ok := decPaxos(m.Data)
	if !ok || !c.IsLeader || ballot != c.ballot {
		return 200 * sim.Nanosecond
	}
	s := c.log.find(inst)
	if s == nil || !s.present() || s.committed {
		return 200 * sim.Nanosecond
	}
	s.acks++
	if s.acks >= c.majority() {
		c.commit(ctx, inst, s)
	}
	return 400 * sim.Nanosecond
}

// commit fires once per instance: apply locally, learn to peers, and
// acknowledge the client — the consensus actor "sends a message to the
// LSM Memtable once during the commit phase" (§4). The learn is the
// slot's payload, the accept sent again.
func (c *Consensus) commit(ctx actor.Ctx, inst uint64, s *slot) {
	if s.committed {
		return
	}
	s.committed = true
	c.Commits++
	ctx.Send(c.memtable, actor.Msg{Kind: kindApply, Data: s.cmd()})
	for _, p := range c.peers {
		ctx.Send(p, actor.Msg{Kind: kindLearn, Data: s.payload})
	}
	if client, ok := c.inflight[inst]; ok {
		delete(c.inflight, inst)
		if client.Reply != nil {
			client.Data = statusOK
			ctx.Reply(client)
		}
	}
}

// learn is the follower's phase-3 handler: mark committed and apply.
func (c *Consensus) learn(ctx actor.Ctx, m actor.Msg) sim.Time {
	inst, ballot, _, ok := decPaxos(m.Data)
	if !ok {
		return 200 * sim.Nanosecond
	}
	c.stepDown(ballot)
	s := c.log.at(inst)
	if s.committed {
		return 200 * sim.Nanosecond
	}
	s.payload = m.Data
	s.committed = true
	c.Commits++
	// A deposed leader's client for this instance can no longer be
	// answered: commit skips committed slots, and so does an election.
	delete(c.inflight, inst)
	if inst >= c.next {
		c.next = inst + 1
	}
	ctx.Send(c.memtable, actor.Msg{Kind: kindApply, Data: s.cmd()})
	return 600 * sim.Nanosecond
}

// stepDown demotes a (possibly restarted) stale leader that observes a
// higher ballot in live protocol traffic: a new leader was elected while
// this replica was crashed or partitioned, so it must stop proposing and
// redirect clients until it wins an election of its own.
func (c *Consensus) stepDown(ballot uint64) {
	if ballot <= c.ballot {
		return
	}
	if ballot > c.promised {
		c.promised = ballot
	}
	c.ballot = ballot
	if c.IsLeader || c.electing {
		c.IsLeader = false
		c.electing = false
	}
}

// startElection begins the two-phase leader election on this replica
// (invoked when the old leader fails). onElected fires on success.
func (c *Consensus) startElection(ctx actor.Ctx, onElected func()) {
	c.electing = true
	c.promises = 1 // self
	c.merged = paxosLog{}
	c.onElected = onElected
	// Climb to the next ballot congruent to this replica's offset modulo
	// the group size: concurrent candidates can never pick the same
	// number, even after stepDown synchronized their ballot views.
	n := uint64(len(c.peers)) + 1
	next := c.ballot + 1
	c.ballot = next + (n+c.ballotOffset%n-next%n)%n
	c.promised = c.ballot
	c.log.each(func(inst uint64, s *slot) {
		*c.merged.at(inst) = slot{payload: s.payload, accepted: true}
	})
	payload := encPaxos(0, c.ballot, nil)
	for _, p := range c.peers {
		ctx.Send(p, actor.Msg{Kind: kindPrepare, Data: payload})
	}
	c.checkElected(ctx)
}

// prepare is the acceptor side of the election phase 1. The promise
// returns every accepted entry, length-prefixed in ascending instance
// order, so the new leader can fill gaps.
func (c *Consensus) prepare(ctx actor.Ctx, m actor.Msg) sim.Time {
	_, ballot, _, ok := decPaxos(m.Data)
	if !ok || ballot <= c.promised {
		return 300 * sim.Nanosecond
	}
	c.promised = ballot
	c.IsLeader = false
	c.electing = false
	size := 16
	c.log.each(func(_ uint64, s *slot) { size += 4 + len(s.payload) })
	out := make([]byte, 16, size)
	binary.LittleEndian.PutUint64(out[8:], ballot)
	c.log.each(func(_ uint64, s *slot) {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s.payload)))
		out = append(out, s.payload...)
	})
	ctx.Send(m.Src, actor.Msg{Kind: kindPromise, Data: out})
	return 800 * sim.Nanosecond
}

// promise collects election phase-1 responses at the candidate.
func (c *Consensus) promise(ctx actor.Ctx, m actor.Msg) sim.Time {
	_, ballot, rest, ok := decPaxos(m.Data)
	if !ok || !c.electing || ballot != c.ballot {
		return 200 * sim.Nanosecond
	}
	c.promises++
	for len(rest) >= 4 {
		el := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if len(rest) < el {
			break
		}
		entry := rest[:el:el]
		rest = rest[el:]
		inst, b, _, ok2 := decPaxos(entry)
		if !ok2 {
			continue
		}
		if s := c.merged.at(inst); !s.present() || b > s.ballot() {
			*s = slot{payload: entry, accepted: true}
		}
	}
	c.checkElected(ctx)
	return 700 * sim.Nanosecond
}

func (c *Consensus) checkElected(ctx actor.Ctx) {
	if !c.electing || c.promises < c.majority() {
		return
	}
	c.electing = false
	c.IsLeader = true
	if c.OnLead != nil {
		c.OnLead(c.ballot)
	}
	// Choose the next available instance and re-propose every merged
	// entry that is not yet committed locally, in ascending instance
	// order so the re-proposal message sequence is deterministic. A
	// re-proposed instance drops the client it was proposed for.
	c.merged.each(func(inst uint64, e *slot) {
		if inst >= c.next {
			c.next = inst + 1
		}
		s := c.log.at(inst)
		if s.committed {
			return
		}
		delete(c.inflight, inst)
		*s = slot{payload: encPaxos(inst, c.ballot, e.cmd()), acks: 1, accepted: true}
		for _, p := range c.peers {
			ctx.Send(p, actor.Msg{Kind: kindAccept, Data: s.payload})
		}
	})
	c.merged = paxosLog{}
	if c.onElected != nil {
		c.onElected()
		c.onElected = nil
	}
}

// LogLen reports committed instances (tests).
func (c *Consensus) LogLen() int {
	n := 0
	c.log.each(func(_ uint64, s *slot) {
		if s.committed {
			n++
		}
	})
	return n
}
