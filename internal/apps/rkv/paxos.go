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

// instState is one log instance on a replica.
type instState struct {
	ballot    uint64
	cmd       []byte
	accepted  bool
	committed bool
	// Leader-side bookkeeping:
	acks   int
	client actor.Msg
}

// Consensus is a replica's consensus actor.
type Consensus struct {
	Actor *actor.Actor

	peers    []actor.ID // consensus actors of the other replicas
	memtable actor.ID   // local Memtable actor

	// IsLeader marks the distinguished proposer.
	IsLeader bool
	// BallotOffset is this replica's residue in the ballot space: replica
	// k of an n-replica group elects only with ballots ≡ k (mod n), so
	// concurrent candidates can never collide on a ballot number. Deploy
	// sets it to the replica index.
	BallotOffset uint64
	ballot       uint64
	promised     uint64
	log          map[uint64]*instState
	next         uint64 // next instance to allocate (leader)
	applied      uint64 // low-water mark of applied instances

	// Election bookkeeping.
	electing  bool
	promises  int
	merged    map[uint64]*instState
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
		log:      map[uint64]*instState{},
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

// sortedLog returns the log's instance numbers in ascending order, so
// payloads built by iterating the log are byte-deterministic.
func (c *Consensus) sortedLog() []uint64 {
	insts := make([]uint64, 0, len(c.log))
	for inst := range c.log {
		insts = append(insts, inst)
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	return insts
}

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
		c.StartElection(ctx, nil)
		return 1500 * sim.Nanosecond
	}
	return 200 * sim.Nanosecond
}

func (c *Consensus) clientReq(ctx actor.Ctx, m actor.Msg) sim.Time {
	cmd, ok := decodeCmd(m.Data)
	if !ok {
		resp := m
		resp.Data = []byte{byte(StatusNotFound)}
		ctx.Reply(resp)
		return 300 * sim.Nanosecond
	}
	if cmd.Op == opGet {
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
		resp.Data = []byte{byte(StatusRedirect)}
		ctx.Reply(resp)
		return 400 * sim.Nanosecond
	}
	inst := c.next
	c.next++
	st := &instState{ballot: c.ballot, cmd: m.Data, accepted: true, acks: 1, client: m}
	c.log[inst] = st
	payload := encPaxos(inst, c.ballot, m.Data)
	for _, p := range c.peers {
		ctx.Send(p, actor.Msg{Kind: kindAccept, Data: payload})
	}
	if st.acks >= c.majority() {
		c.commit(ctx, inst, st)
	}
	return 900 * sim.Nanosecond
}

// accept is the follower's phase-2 handler.
func (c *Consensus) accept(ctx actor.Ctx, m actor.Msg) sim.Time {
	inst, ballot, cmd, ok := decPaxos(m.Data)
	if !ok || ballot < c.promised {
		return 300 * sim.Nanosecond
	}
	c.stepDown(ballot)
	st := c.log[inst]
	if st == nil {
		st = &instState{}
		c.log[inst] = st
	}
	st.ballot = ballot
	st.cmd = append([]byte(nil), cmd...)
	st.accepted = true
	ctx.Send(m.Src, actor.Msg{Kind: kindAccepted, Data: encPaxos(inst, ballot, nil)})
	return 700 * sim.Nanosecond
}

// accepted is the leader counting phase-2 acks.
func (c *Consensus) accepted(ctx actor.Ctx, m actor.Msg) sim.Time {
	inst, ballot, _, ok := decPaxos(m.Data)
	if !ok || !c.IsLeader || ballot != c.ballot {
		return 200 * sim.Nanosecond
	}
	st := c.log[inst]
	if st == nil || st.committed {
		return 200 * sim.Nanosecond
	}
	st.acks++
	if st.acks >= c.majority() {
		c.commit(ctx, inst, st)
	}
	return 400 * sim.Nanosecond
}

// commit fires once per instance: apply locally, learn to peers, and
// acknowledge the client — the consensus actor "sends a message to the
// LSM Memtable once during the commit phase" (§4).
func (c *Consensus) commit(ctx actor.Ctx, inst uint64, st *instState) {
	if st.committed {
		return
	}
	st.committed = true
	c.Commits++
	ctx.Send(c.memtable, actor.Msg{Kind: kindApply, Data: st.cmd})
	payload := encPaxos(inst, st.ballot, st.cmd)
	for _, p := range c.peers {
		ctx.Send(p, actor.Msg{Kind: kindLearn, Data: payload})
	}
	if st.client.Reply != nil {
		resp := st.client
		resp.Data = []byte{byte(StatusOK)}
		ctx.Reply(resp)
		st.client = actor.Msg{}
	}
}

// learn is the follower's phase-3 handler: mark committed and apply.
func (c *Consensus) learn(ctx actor.Ctx, m actor.Msg) sim.Time {
	inst, ballot, cmd, ok := decPaxos(m.Data)
	if !ok {
		return 200 * sim.Nanosecond
	}
	c.stepDown(ballot)
	st := c.log[inst]
	if st == nil {
		st = &instState{}
		c.log[inst] = st
	}
	if st.committed {
		return 200 * sim.Nanosecond
	}
	st.ballot = ballot
	st.cmd = append([]byte(nil), cmd...)
	st.committed = true
	c.Commits++
	if inst >= c.next {
		c.next = inst + 1
	}
	ctx.Send(c.memtable, actor.Msg{Kind: kindApply, Data: st.cmd})
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

// StartElection begins the two-phase leader election on this replica
// (invoked when the old leader fails). onElected fires on success.
func (c *Consensus) StartElection(ctx actor.Ctx, onElected func()) {
	c.electing = true
	c.promises = 1 // self
	c.merged = map[uint64]*instState{}
	c.onElected = onElected
	// Climb to the next ballot congruent to this replica's offset modulo
	// the group size: concurrent candidates can never pick the same
	// number, even after stepDown synchronized their ballot views.
	n := uint64(len(c.peers)) + 1
	next := c.ballot + 1
	c.ballot = next + (n+c.BallotOffset%n-next%n)%n
	c.promised = c.ballot
	for inst, st := range c.log {
		if st.accepted || st.committed {
			c.merged[inst] = &instState{ballot: st.ballot, cmd: st.cmd, committed: st.committed}
		}
	}
	payload := encPaxos(0, c.ballot, nil)
	for _, p := range c.peers {
		ctx.Send(p, actor.Msg{Kind: kindPrepare, Data: payload})
	}
	c.checkElected(ctx)
}

// prepare is the acceptor side of the election phase 1.
func (c *Consensus) prepare(ctx actor.Ctx, m actor.Msg) sim.Time {
	_, ballot, _, ok := decPaxos(m.Data)
	if !ok || ballot <= c.promised {
		return 300 * sim.Nanosecond
	}
	c.promised = ballot
	c.IsLeader = false
	c.electing = false
	// Return every accepted entry so the new leader can fill gaps. Sorted
	// instance order: the promise payload bytes must not depend on map
	// iteration order (determinism invariant).
	var out []byte
	for _, inst := range c.sortedLog() {
		st := c.log[inst]
		if st.accepted || st.committed {
			entry := encPaxos(inst, st.ballot, st.cmd)
			var el [4]byte
			binary.LittleEndian.PutUint32(el[:], uint32(len(entry)))
			out = append(out, el[:]...)
			out = append(out, entry...)
		}
	}
	hdr := encPaxos(0, ballot, nil)
	ctx.Send(m.Src, actor.Msg{Kind: kindPromise, Data: append(hdr, out...)})
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
		inst, b, cmd, ok2 := decPaxos(rest[:el])
		rest = rest[el:]
		if !ok2 {
			continue
		}
		cur := c.merged[inst]
		if cur == nil || b > cur.ballot {
			c.merged[inst] = &instState{ballot: b, cmd: append([]byte(nil), cmd...)}
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
	// entry that is not yet committed locally, in sorted instance order
	// so the re-proposal message sequence is deterministic.
	insts := make([]uint64, 0, len(c.merged))
	for inst := range c.merged {
		insts = append(insts, inst)
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	for _, inst := range insts {
		st := c.merged[inst]
		if inst >= c.next {
			c.next = inst + 1
		}
		local := c.log[inst]
		if local != nil && local.committed {
			continue
		}
		ns := &instState{ballot: c.ballot, cmd: st.cmd, accepted: true, acks: 1}
		c.log[inst] = ns
		payload := encPaxos(inst, c.ballot, st.cmd)
		for _, p := range c.peers {
			ctx.Send(p, actor.Msg{Kind: kindAccept, Data: payload})
		}
	}
	if c.onElected != nil {
		c.onElected()
		c.onElected = nil
	}
}

// LogLen reports committed instances (tests).
func (c *Consensus) LogLen() int {
	n := 0
	for _, st := range c.log {
		if st.committed {
			n++
		}
	}
	return n
}
