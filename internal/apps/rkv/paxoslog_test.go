package rkv

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/actor"
	"repro/internal/sim"
)

// The paged Paxos log and the payloads it shares, checked three ways:
// exactly against a plain-map copy of the log it replaced, by the
// allocation count of a steady-state replication round, and by a fuzzer
// that forges every consensus message.

// mapConsensus is the reference model: the consensus actor as it was
// with one heap record per instance in a map, a copy of every command a
// follower receives, and a sort wherever the log is walked. It answers
// every message with the bytes the paged log must reproduce.
type mapConsensus struct {
	Actor    *actor.Actor
	peers    []actor.ID
	memtable actor.ID

	IsLeader     bool
	BallotOffset uint64
	ballot       uint64
	promised     uint64
	log          map[uint64]*mapInst
	next         uint64

	electing bool
	promises int
	merged   map[uint64]*mapInst

	Commits   uint64
	Redirects uint64
}

type mapInst struct {
	ballot    uint64
	cmd       []byte
	accepted  bool
	committed bool
	acks      int
	client    actor.Msg
}

func newMapConsensus(id actor.ID, peers []actor.ID, memtable actor.ID, leader bool) *mapConsensus {
	c := &mapConsensus{peers: peers, memtable: memtable, IsLeader: leader, ballot: 1, log: map[uint64]*mapInst{}}
	c.Actor = &actor.Actor{ID: id, Name: "rkv-consensus-model", Exclusive: true, OnMessage: c.onMessage}
	return c
}

func (c *mapConsensus) majority() int { return (len(c.peers)+1)/2 + 1 }

func sortedKeys(m map[uint64]*mapInst) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func (c *mapConsensus) onMessage(ctx actor.Ctx, m actor.Msg) sim.Time {
	switch m.Kind {
	case KindReq:
		cmd, ok := decodeCmd(m.Data)
		switch {
		case !ok:
			resp := m
			resp.Data = []byte{byte(StatusNotFound)}
			ctx.Reply(resp)
		case cmd.op == opGet:
			ctx.Send(c.memtable, actor.Msg{Kind: kindGet, Data: m.Data, Origin: m.Origin, Reply: m.Reply, WireSize: m.WireSize, FlowID: m.FlowID})
		case !c.IsLeader:
			c.Redirects++
			resp := m
			resp.Data = []byte{byte(StatusRedirect)}
			ctx.Reply(resp)
		default:
			inst := c.next
			c.next++
			st := &mapInst{ballot: c.ballot, cmd: m.Data, accepted: true, acks: 1, client: m}
			c.log[inst] = st
			payload := encPaxos(inst, c.ballot, m.Data)
			for _, p := range c.peers {
				ctx.Send(p, actor.Msg{Kind: kindAccept, Data: payload})
			}
			if st.acks >= c.majority() {
				c.commit(ctx, inst, st)
			}
		}
	case kindAccept:
		inst, ballot, cmd, ok := decPaxos(m.Data)
		if !ok || ballot < c.promised {
			break
		}
		c.stepDown(ballot)
		st := c.log[inst]
		if st == nil {
			st = &mapInst{}
			c.log[inst] = st
		}
		st.ballot = ballot
		st.cmd = append([]byte(nil), cmd...)
		st.accepted = true
		ctx.Send(m.Src, actor.Msg{Kind: kindAccepted, Data: encPaxos(inst, ballot, nil)})
	case kindAccepted:
		inst, ballot, _, ok := decPaxos(m.Data)
		if !ok || !c.IsLeader || ballot != c.ballot {
			break
		}
		if st := c.log[inst]; st != nil && !st.committed {
			st.acks++
			if st.acks >= c.majority() {
				c.commit(ctx, inst, st)
			}
		}
	case kindLearn:
		inst, ballot, cmd, ok := decPaxos(m.Data)
		if !ok {
			break
		}
		c.stepDown(ballot)
		st := c.log[inst]
		if st == nil {
			st = &mapInst{}
			c.log[inst] = st
		}
		if st.committed {
			break
		}
		st.ballot = ballot
		st.cmd = append([]byte(nil), cmd...)
		st.committed = true
		c.Commits++
		if inst >= c.next {
			c.next = inst + 1
		}
		ctx.Send(c.memtable, actor.Msg{Kind: kindApply, Data: st.cmd})
	case kindPrepare:
		_, ballot, _, ok := decPaxos(m.Data)
		if !ok || ballot <= c.promised {
			break
		}
		c.promised = ballot
		c.IsLeader = false
		c.electing = false
		var out []byte
		for _, inst := range sortedKeys(c.log) {
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
	case kindPromise:
		_, ballot, rest, ok := decPaxos(m.Data)
		if !ok || !c.electing || ballot != c.ballot {
			break
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
			if cur := c.merged[inst]; cur == nil || b > cur.ballot {
				c.merged[inst] = &mapInst{ballot: b, cmd: append([]byte(nil), cmd...)}
			}
		}
		c.checkElected(ctx)
	case KindElect:
		c.electing = true
		c.promises = 1
		c.merged = map[uint64]*mapInst{}
		n := uint64(len(c.peers)) + 1
		next := c.ballot + 1
		c.ballot = next + (n+c.BallotOffset%n-next%n)%n
		c.promised = c.ballot
		for inst, st := range c.log {
			if st.accepted || st.committed {
				c.merged[inst] = &mapInst{ballot: st.ballot, cmd: st.cmd, committed: st.committed}
			}
		}
		payload := encPaxos(0, c.ballot, nil)
		for _, p := range c.peers {
			ctx.Send(p, actor.Msg{Kind: kindPrepare, Data: payload})
		}
		c.checkElected(ctx)
	}
	return sim.Nanosecond
}

func (c *mapConsensus) commit(ctx actor.Ctx, inst uint64, st *mapInst) {
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

func (c *mapConsensus) stepDown(ballot uint64) {
	if ballot <= c.ballot {
		return
	}
	if ballot > c.promised {
		c.promised = ballot
	}
	c.ballot = ballot
	c.IsLeader = false
	c.electing = false
}

func (c *mapConsensus) checkElected(ctx actor.Ctx) {
	if !c.electing || c.promises < c.majority() {
		return
	}
	c.electing = false
	c.IsLeader = true
	for _, inst := range sortedKeys(c.merged) {
		st := c.merged[inst]
		if inst >= c.next {
			c.next = inst + 1
		}
		if local := c.log[inst]; local != nil && local.committed {
			continue
		}
		c.log[inst] = &mapInst{ballot: c.ballot, cmd: st.cmd, accepted: true, acks: 1}
		payload := encPaxos(inst, c.ballot, st.cmd)
		for _, p := range c.peers {
			ctx.Send(p, actor.Msg{Kind: kindAccept, Data: payload})
		}
	}
}

func (c *mapConsensus) LogLen() int {
	n := 0
	for _, st := range c.log {
		if st.committed {
			n++
		}
	}
	return n
}

// replicaState is what the differential test compares per replica.
func replicaState(c *Consensus) string {
	return fmt.Sprint(c.LogLen(), c.Commits, c.Redirects, c.IsLeader, c.electing, c.ballot, c.promised, c.next)
}

func modelState(c *mapConsensus) string {
	return fmt.Sprint(c.LogLen(), c.Commits, c.Redirects, c.IsLeader, c.electing, c.ballot, c.promised, c.next)
}

func msgString(m actor.Msg) string {
	return fmt.Sprintf("%d %d→%d flow=%d %x", m.Kind, m.Src, m.Dst, m.FlowID, m.Data)
}

// TestPagedLogMatchesMapModel: random interleavings of client PUTs,
// partial delivery, lost messages, forged and stale-ballot protocol
// messages and elections, run on three paged-log replicas and on three
// replicas of the map model side by side. After every step the two
// groups must hold the same queue of messages — byte for byte, so
// promise payloads and re-proposal order included — have sent the same
// client replies, and agree on every replica's counters and ballots.
func TestPagedLogMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		paged, model := newBus(), newBus()
		var cs [3]*Consensus
		var ms [3]*mapConsensus
		for i := range cs {
			id := actor.ID(i + 1)
			var peers []actor.ID
			for j := 1; j <= 3; j++ {
				if actor.ID(j) != id {
					peers = append(peers, actor.ID(j))
				}
			}
			cs[i] = NewConsensus(id, peers, 99, i == 0)
			ms[i] = newMapConsensus(id, peers, 99, i == 0)
			cs[i].ballotOffset, ms[i].BallotOffset = uint64(i), uint64(i)
			paged.add(cs[i].Actor)
			model.add(ms[i].Actor)
		}
		both := func(m actor.Msg) {
			paged.send(m)
			model.send(m)
		}
		reply := func(actor.Msg) {}
		// Forged instances stay mostly near the live ones, so they
		// collide with real entries, but some land far away, on other
		// pages, or at the top of the instance space.
		inst := func() uint64 {
			switch rng.Intn(8) {
			case 0:
				return uint64(rng.Intn(4)) * logPageSlots * 3
			case 1:
				return math.MaxUint64 - uint64(rng.Intn(2))
			default:
				return uint64(rng.Intn(40))
			}
		}
		for step := 0; step < 400; step++ {
			src := actor.ID(1 + rng.Intn(3))
			dst := actor.ID(1 + rng.Intn(3))
			switch r := rng.Intn(20); {
			case r < 6:
				key := fmt.Sprintf("k%d", rng.Intn(10))
				both(actor.Msg{Kind: KindReq, Dst: dst, FlowID: uint64(step), Reply: reply,
					Data: encodeCmd(command{op: opPut, key: []byte(key), value: []byte{byte(step)}})})
			case r < 7:
				both(actor.Msg{Kind: KindElect, Dst: dst})
			case r < 9:
				kinds := []actor.Kind{kindAccept, kindAccepted, kindLearn, kindPrepare}
				both(actor.Msg{Kind: kinds[rng.Intn(len(kinds))], Src: src, Dst: dst,
					Data: encPaxos(inst(), uint64(rng.Intn(12)), []byte{byte(rng.Intn(256))})})
			case r < 10:
				// A promise with entries, some truncated, at the ballot the
				// destination may be electing with.
				p := encPaxos(0, cs[dst-1].ballot+uint64(rng.Intn(2)), nil)
				for k := rng.Intn(4); k > 0; k-- {
					e := encPaxos(inst(), uint64(rng.Intn(12)), []byte{byte(k)})
					n := len(e)
					if rng.Intn(4) == 0 {
						n = rng.Intn(20)
					}
					p = binary.LittleEndian.AppendUint32(p, uint32(n))
					p = append(p, e[:min(n, len(e))]...)
				}
				both(actor.Msg{Kind: kindPromise, Src: src, Dst: dst, Data: p})
			case r < 12:
				if len(paged.pending()) > 0 {
					paged.next()
					model.next()
				}
			case r < 17:
				for k := rng.Intn(6); k > 0 && len(paged.pending()) > 0; k-- {
					paged.deliver(paged.next())
					model.deliver(model.next())
				}
			default:
				paged.pump()
				model.pump()
			}
			where := fmt.Sprintf("seed %d step %d", seed, step)
			pq, mq := paged.pending(), model.pending()
			if len(pq) != len(mq) {
				t.Fatalf("%s: %d messages queued, model %d", where, len(pq), len(mq))
			}
			for i := range pq {
				if a, b := msgString(pq[i]), msgString(mq[i]); a != b {
					t.Fatalf("%s: queued message %d is\n  %s\nmodel\n  %s", where, i, a, b)
				}
			}
			if len(paged.replies) != len(model.replies) {
				t.Fatalf("%s: %d client replies, model %d", where, len(paged.replies), len(model.replies))
			}
			for i := range paged.replies {
				if a, b := msgString(paged.replies[i]), msgString(model.replies[i]); a != b {
					t.Fatalf("%s: reply %d is %s, model %s", where, i, a, b)
				}
			}
			for i := range cs {
				if a, b := replicaState(cs[i]), modelState(ms[i]); a != b {
					t.Fatalf("%s: replica %d state %s, model %s", where, i+1, a, b)
				}
			}
		}
	}
}

// TestReplicationAllocBudget: a committed PUT through a leader and two
// followers — accepts, accepted replies, learns, three applies and the
// client's reply — allocates one thing: the accept payload the leader
// encodes, which the followers keep as views, acknowledge by its header
// and receive again as the learn. The client's one-byte status is the
// payload all OK replies share. Every instance here lands on the log's first page, made in the
// warm-up, and a page serves 512 instances per replica after that.
func TestReplicationAllocBudget(t *testing.T) {
	b, leader, f1, f2 := threeReplicas(t)
	oks := 0
	req := actor.Msg{Kind: KindReq, Dst: 1, Origin: "cli",
		Data:  encodeCmd(command{op: opPut, key: []byte("key"), value: []byte("value")}),
		Reply: func(m actor.Msg) { oks += btoi(StatusOf(m.Data) == StatusOK) }}
	round := func() {
		b.send(req)
		b.pump()
		b.replies = b.replies[:0]
	}
	round()
	// AllocsPerRun runs the round once more before it counts.
	const runs, puts = 200, 200 + 2
	if got := testing.AllocsPerRun(runs, round); got != 1 {
		t.Fatalf("a replicated PUT allocates %v, want 1: the accept payload", got)
	}
	if oks != puts {
		t.Fatalf("%d PUTs acknowledged, want %d", oks, puts)
	}
	for i, c := range []*Consensus{leader, f1, f2} {
		if c.LogLen() != puts || len(c.log.pages) != 1 {
			t.Fatalf("replica %d: %d instances committed on %d pages, want %d on 1", i, c.LogLen(), len(c.log.pages), puts)
		}
	}
	// The followers' log entries are the leader's payloads, not copies.
	for inst := uint64(0); inst < puts; inst++ {
		l, f := leader.log.find(inst), f2.log.find(inst)
		if &l.payload[0] != &f.payload[0] {
			t.Fatalf("instance %d: follower keeps a copy of the leader's payload", inst)
		}
	}
	if len(leader.inflight) != 0 {
		t.Fatalf("%d client requests left in flight", len(leader.inflight))
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestReelectionDropsReplacedClient: a leader whose instance is
// re-proposed by an election does not answer that instance's client,
// even when it wins the election itself and commits the instance. The
// leader proposes instance 0 and loses its accepts; replica 2 is elected,
// re-proposes instance 0 and commits it, but its learn to the old
// leader is lost; then the old leader is elected again, re-proposes
// instance 0 and commits it too.
func TestReelectionDropsReplacedClient(t *testing.T) {
	b, leader, f1, f2 := threeReplicas(t)
	f1.ballotOffset, f2.ballotOffset = 1, 2
	answered := 0
	clientWrite(b, 1, "k", "v", func(actor.Msg) { answered++ })
	b.pumpExcept(func(m actor.Msg) bool { return m.Kind == kindAccept })
	if leader.LogLen() != 0 || len(leader.inflight) != 1 {
		t.Fatalf("leader committed %d, %d in flight; want the instance open", leader.LogLen(), len(leader.inflight))
	}

	b.send(actor.Msg{Kind: KindElect, Dst: 2})
	b.pumpExcept(func(m actor.Msg) bool { return m.Kind == kindLearn && m.Dst == 1 })
	if !f1.IsLeader || leader.IsLeader || f1.LogLen() != 1 || leader.LogLen() != 0 {
		t.Fatalf("after replica 2's election: leaders %v/%v, committed %d/%d",
			leader.IsLeader, f1.IsLeader, leader.LogLen(), f1.LogLen())
	}

	b.send(actor.Msg{Kind: KindElect, Dst: 1})
	b.pump()
	if !leader.IsLeader || leader.LogLen() != 1 || leader.Commits != 1 {
		t.Fatalf("old leader re-elected %v, committed %d (%d commits); want it leading with instance 0 committed",
			leader.IsLeader, leader.LogLen(), leader.Commits)
	}
	if answered != 0 || len(b.replies) != 0 {
		t.Fatalf("the replaced instance's client was answered %d times", answered)
	}
	if len(leader.inflight) != 0 {
		t.Fatalf("%d client requests left in flight", len(leader.inflight))
	}
}

// fuzzKinds are the messages FuzzPaxosMessages forges, by selector.
var fuzzKinds = []actor.Kind{KindReq, kindAccept, kindAccepted, kindLearn, kindPrepare, kindPromise, KindElect}

// FuzzPaxosMessages: arbitrary payloads of every consensus message kind
// — truncated headers, forged instance numbers, promise entries whose
// length runs past the end — delivered to the leader and a follower of a
// three-replica group. The input is a sequence of records: a selector
// byte (the kind, and in its top bit the destination), a length byte,
// then that many payload bytes, cut short at the end of the input.
// Nothing may panic, and a log may hold only pages that an instance
// number in the input, or one the leader allocated after it, selects:
// one fixed-size page per distinct inst/512, never an allocation an
// instance number sizes.
func FuzzPaxosMessages(f *testing.F) {
	put := encodeCmd(command{op: opPut, key: []byte("k"), value: []byte("v")})
	rec := func(sel byte, p []byte) []byte { return append([]byte{sel, byte(len(p))}, p...) }
	f.Add(rec(0, put))
	f.Add(append(rec(0, put), rec(6|0x80, nil)...))
	f.Add(rec(1|0x80, encPaxos(math.MaxUint64, 9, []byte("x"))))
	f.Add(rec(3|0x80, encPaxos(1<<40, 2, put)))
	f.Add(rec(4, []byte{1, 2, 3}))
	f.Add(append(rec(6, nil), rec(5, append(encPaxos(0, 3, nil), 200, 0, 0, 0, 1))...))
	f.Fuzz(func(t *testing.T, in []byte) {
		b, leader, f1, f2 := threeReplicas(t)
		f1.ballotOffset, f2.ballotOffset = 1, 2
		var named []uint64
		name := func(p []byte, promise bool) {
			inst, _, rest, ok := decPaxos(p)
			if !ok {
				return
			}
			named = append(named, inst, inst+1)
			for promise && len(rest) >= 4 {
				el := int(binary.LittleEndian.Uint32(rest))
				if rest = rest[4:]; len(rest) < el {
					break
				}
				if e, _, _, ok := decPaxos(rest[:el]); ok {
					named = append(named, e, e+1)
				}
				rest = rest[el:]
			}
		}
		msgs := 0
		for len(in) >= 2 && msgs < 64 {
			sel, n := in[0], int(in[1])
			p := in[2:min(2+n, len(in))]
			in = in[2+len(p):]
			kind := fuzzKinds[int(sel&0x7f)%len(fuzzKinds)]
			dst, src := actor.ID(1), actor.ID(2)
			if sel&0x80 != 0 {
				dst, src = 2, 3
			}
			name(p, kind == kindPromise)
			b.send(actor.Msg{Kind: kind, Src: src, Dst: dst, Data: p, Reply: func(actor.Msg) {}})
			b.pump()
			msgs++
		}
		// A leader allocates instances upward from 0 or from one past an
		// instance it learned of: at most one per message from each.
		allowed := map[uint64]bool{}
		for _, base := range append(named, 0) {
			for j := 0; j <= msgs; j++ {
				allowed[(base+uint64(j))/logPageSlots] = true
			}
		}
		for i, c := range []*Consensus{leader, f1, f2} {
			for _, l := range []*paxosLog{&c.log, &c.merged} {
				if len(l.order) != len(l.pages) {
					t.Fatalf("replica %d: %d pages listed, %d mapped", i, len(l.order), len(l.pages))
				}
				for k, p := range l.order {
					if l.pages[p.key] != p || (k > 0 && l.order[k-1].key >= p.key) {
						t.Fatalf("replica %d: page list out of order at %d", i, k)
					}
					if !allowed[p.key] {
						t.Fatalf("replica %d: page %d selected by no instance of the input", i, p.key)
					}
					used := false
					for j := range p.slots {
						used = used || p.slots[j].present()
					}
					if !used {
						t.Fatalf("replica %d: page %d holds no instance", i, p.key)
					}
				}
			}
			if c.LogLen() > int(c.Commits) {
				t.Fatalf("replica %d: %d committed instances, %d commits", i, c.LogLen(), c.Commits)
			}
		}
	})
}
