package dt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/actor"
	"repro/internal/sim"
)

// Actor IDs of the loop deployment: a coordinator, two participants, a
// logger and the client that sends transactions.
const (
	loopCoord  actor.ID = 100
	loopPart0  actor.ID = 101
	loopPart1  actor.ID = 102
	loopLogger actor.ID = 103
	loopClient actor.ID = 1
)

// loop runs a coordinator and its participants without an engine: a
// send is queued, and drain hands queued messages to their destination
// in FIFO order until none is left. A message hold accepts is set aside
// in held instead, so a test can make it late. loose counts sent and
// replied payloads whose capacity is not their length.
type loop struct {
	now     sim.Time
	actors  map[actor.ID]*actor.Actor
	ctxs    map[actor.ID]*loopCtx
	queue   []actor.Msg
	hold    func(actor.Msg) bool
	held    []actor.Msg
	sent    int
	loose   int
	replies [][]byte
}

// loopCtx is one actor's context on a loop: it stamps the sender and
// reads the loop's clock.
type loopCtx struct {
	sinkCtx
	id actor.ID
	l  *loop
}

func (c *loopCtx) Now() sim.Time { return c.l.now }
func (c *loopCtx) Send(dst actor.ID, m actor.Msg) {
	m.Src, m.Dst = c.id, dst
	c.l.queue = append(c.l.queue, m)
	c.l.sent++
	c.l.count(m.Data)
}
func (c *loopCtx) Reply(m actor.Msg) {
	c.l.replies = append(c.l.replies, m.Data)
	c.l.count(m.Data)
}

func (l *loop) count(p []byte) {
	if len(p) != cap(p) {
		l.loose++
	}
}

// newLoop deploys a coordinator over two participants holding s0 and s1.
func newLoop(s0, s1 *Store) (*loop, *Coordinator) {
	c := NewCoordinator(loopCoord, []actor.ID{loopPart0, loopPart1}, loopLogger)
	l := &loop{actors: map[actor.ID]*actor.Actor{
		loopCoord:  c.Actor,
		loopPart0:  NewParticipant(loopPart0, s0),
		loopPart1:  NewParticipant(loopPart1, s1),
		loopLogger: NewLogger(loopLogger, nil),
	}, ctxs: map[actor.ID]*loopCtx{}}
	for id, a := range l.actors {
		l.ctxs[id] = &loopCtx{id: id, l: l}
		if a.OnInit != nil {
			a.OnInit(l.ctxs[id])
		}
	}
	return l, c
}

// run queues m and drains.
func (l *loop) run(m actor.Msg) {
	l.queue = append(l.queue, m)
	l.drain()
}

func (l *loop) drain() {
	for i := 0; i < len(l.queue); i++ {
		m := l.queue[i]
		if l.hold != nil && l.hold(m) {
			l.held = append(l.held, m)
			continue
		}
		l.actors[m.Dst].OnMessage(l.ctxs[m.Dst], m)
	}
	l.queue = l.queue[:0]
}

// txnMsg is the client request carrying t.
func txnMsg(t Txn) actor.Msg {
	return actor.Msg{Kind: KindTxn, Src: loopClient, Dst: loopCoord, Data: EncodeTxn(t)}
}

// keyOn returns the first key prefix+N that Partition places on
// participant part of two.
func keyOn(prefix string, part int) []byte {
	for i := 0; ; i++ {
		if k := []byte(fmt.Sprintf("%s%d", prefix, i)); Partition(k, 2) == part {
			return k
		}
	}
}

// clientReply is the expected reply payload: the outcome byte, then each
// read key with its value, in read-set order.
func clientReply(o Outcome, kv ...[]byte) []byte {
	b := []byte{byte(o)}
	for i := 0; i < len(kv); i += 2 {
		b = append(b, byte(len(kv[i])))
		b = append(b, kv[i]...)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(kv[i+1])))
		b = append(b, kv[i+1]...)
	}
	return b
}

// wantRecord checks one store record; a nil want means no record.
func wantRecord(t *testing.T, s *Store, k []byte, want *Record) {
	t.Helper()
	got := s.Get(k)
	switch {
	case want == nil && got == nil:
	case want == nil || got == nil:
		t.Errorf("record %q = %+v, want %+v", k, got, want)
	case !bytes.Equal(got.Value, want.Value) || got.Version != want.Version || got.Locked != want.Locked:
		t.Errorf("record %q = {%q v%d locked=%v}, want {%q v%d locked=%v}",
			k, got.Value, got.Version, got.Locked, want.Value, want.Version, want.Locked)
	}
}

// TestTxnSemantics pins, message for message, what the coordinator and
// participants make of the transaction shapes whose bookkeeping is
// easiest to get wrong: a key read twice, a read key that is also
// written, read-only and write-only transactions, and a phase-1 lock
// conflict. Each case checks the exact client reply and the stores.
func TestTxnSemantics(t *testing.T) {
	a0, a1 := keyOn("a", 0), keyOn("a", 1)
	w0, w1 := keyOn("w", 0), keyOn("w", 1)
	c0, m0 := keyOn("c", 0), keyOn("m", 0)
	for _, tc := range []struct {
		name  string
		txn   Txn
		reply []byte
		sent  int // protocol messages, the reply excluded
		check func(t *testing.T, s0, s1 *Store)
	}{
		{
			name:  "same key read twice",
			txn:   Txn{Reads: []Op{{Key: a0}, {Key: a0}}, Writes: []Op{{Key: w1, Value: []byte("x")}}},
			reply: clientReply(OutcomeCommitted, a0, []byte("A0"), a0, []byte("A0")),
			sent:  8, // phase1 and resp ×2, validate and resp, commit and ack
			check: func(t *testing.T, s0, s1 *Store) {
				wantRecord(t, s0, a0, &Record{Value: []byte("A0"), Version: 4})
				wantRecord(t, s1, w1, &Record{Value: []byte("x"), Version: 1})
			},
		},
		{
			// Validation sees the transaction's own lock on the key, so
			// it aborts; the reply still carries the phase-1 read.
			name:  "read key is the write key",
			txn:   Txn{Reads: []Op{{Key: a1}}, Writes: []Op{{Key: a1, Value: []byte("y")}}},
			reply: clientReply(OutcomeAborted, a1, []byte("A1")),
			sent:  5, // phase1, resp, validate, resp, abort
			check: func(t *testing.T, s0, s1 *Store) {
				wantRecord(t, s1, a1, &Record{Value: []byte("A1"), Version: 7})
			},
		},
		{
			name:  "read-only",
			txn:   Txn{Reads: []Op{{Key: a1}, {Key: a0}, {Key: m0}}},
			reply: clientReply(OutcomeCommitted, a1, []byte("A1"), a0, []byte("A0"), m0, nil),
			sent:  8, // phase1, resp, validate, resp — ×2
			check: func(t *testing.T, s0, s1 *Store) {
				wantRecord(t, s0, a0, &Record{Value: []byte("A0"), Version: 4})
				wantRecord(t, s1, a1, &Record{Value: []byte("A1"), Version: 7})
				wantRecord(t, s0, m0, nil)
			},
		},
		{
			name:  "write-only",
			txn:   Txn{Writes: []Op{{Key: w1, Value: []byte("q")}, {Key: w0, Value: []byte("p")}, {Key: a0, Value: []byte("A0'")}}},
			reply: clientReply(OutcomeCommitted),
			sent:  8, // phase1, resp, commit, ack — ×2
			check: func(t *testing.T, s0, s1 *Store) {
				wantRecord(t, s0, w0, &Record{Value: []byte("p"), Version: 1})
				wantRecord(t, s1, w1, &Record{Value: []byte("q"), Version: 1})
				wantRecord(t, s0, a0, &Record{Value: []byte("A0'"), Version: 5})
			},
		},
		{
			// c0 is held by someone else: participant 0 votes no, the
			// abort releases w1, which participant 1 had locked, and
			// leaves c0's lock alone.
			name:  "phase-1 lock conflict",
			txn:   Txn{Reads: []Op{{Key: c0}, {Key: a1}}, Writes: []Op{{Key: w1, Value: []byte("z")}}},
			reply: clientReply(OutcomeAborted, c0, []byte("C"), a1, []byte("A1")),
			sent:  5, // phase1 and resp ×2, abort
			check: func(t *testing.T, s0, s1 *Store) {
				wantRecord(t, s0, c0, &Record{Value: []byte("C"), Version: 2, Locked: true})
				wantRecord(t, s1, w1, &Record{})
				wantRecord(t, s1, a1, &Record{Value: []byte("A1"), Version: 7})
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s0, s1 := NewStore(), NewStore()
			s0.Put(a0, &Record{Value: []byte("A0"), Version: 4})
			s1.Put(a1, &Record{Value: []byte("A1"), Version: 7})
			s0.Put(c0, &Record{Value: []byte("C"), Version: 2, Locked: true})
			l, c := newLoop(s0, s1)
			l.run(txnMsg(tc.txn))
			if len(l.replies) != 1 || !bytes.Equal(l.replies[0], tc.reply) {
				t.Fatalf("replies %q, want [%q]", l.replies, tc.reply)
			}
			if l.sent != tc.sent {
				t.Errorf("%d protocol messages, want %d", l.sent, tc.sent)
			}
			if l.loose != 0 {
				t.Errorf("%d payloads are not exactly sized", l.loose)
			}
			if len(c.inflight) != 0 {
				t.Errorf("%d transactions still in flight", len(c.inflight))
			}
			tc.check(t, s0, s1)
		})
	}
}

// TestStaleMessagesMissRecycledTxn: a transaction the sweep aborts gives
// its record to the next one, and the aborted transaction's late
// phase-1, validate and commit answers must not reach it — they name a
// transaction ID that has left inflight for good.
func TestStaleMessagesMissRecycledTxn(t *testing.T) {
	a0, a1 := keyOn("a", 0), keyOn("a", 1)
	w0, w1 := keyOn("w", 0), keyOn("w", 1)
	s0, s1 := NewStore(), NewStore()
	s1.Put(a1, &Record{Value: []byte("A1"), Version: 3})
	l, c := newLoop(s0, s1)
	c.TxnTimeout = sim.Millisecond
	isPhase1Resp := func(m actor.Msg) bool { return m.Kind == kindPhase1Resp }

	// A locks w1 and is stranded: both phase-1 answers are held.
	l.hold = isPhase1Resp
	l.run(txnMsg(Txn{Reads: []Op{{Key: a0}}, Writes: []Op{{Key: w1, Value: []byte("A")}}}))
	lateA := l.held
	l.held = nil
	if len(lateA) != 2 {
		t.Fatalf("%d phase-1 answers held, want 2", len(lateA))
	}
	stA := c.inflight[0]

	// The sweep aborts A, releasing w1.
	l.now = c.TxnTimeout
	l.run(actor.Msg{Kind: KindSweep, Dst: loopCoord})
	if c.TimeoutAborts != 1 || len(l.replies) != 1 || !bytes.Equal(l.replies[0], clientReply(OutcomeAborted, a0, nil)) {
		t.Fatalf("sweep: %d timeout aborts, replies %q", c.TimeoutAborts, l.replies)
	}
	wantRecord(t, s1, w1, &Record{})

	// B takes A's record, locks w0 and waits for its phase-1 answers.
	l.run(txnMsg(Txn{Reads: []Op{{Key: a1}}, Writes: []Op{{Key: w0, Value: []byte("B")}}}))
	heldB := l.held
	l.held, l.hold = nil, nil
	stB := c.inflight[1]
	if stB != stA {
		t.Fatal("B did not reuse A's released record")
	}
	if stB.pending != 2 || len(heldB) != 2 {
		t.Fatalf("B: %d pending, %d answers held", stB.pending, len(heldB))
	}

	// A's late answers: both phase-1 votes, and a failed validation
	// and a commit ack as a slower network would have delivered them.
	sent := l.sent
	for _, m := range lateA {
		l.run(m)
	}
	stale := binary.LittleEndian.AppendUint64(nil, 0)
	l.run(actor.Msg{Kind: kindValidateResp, Src: loopPart0, Dst: loopCoord, Data: append(stale, 0)})
	l.run(actor.Msg{Kind: kindCommitAck, Src: loopPart1, Dst: loopCoord, Data: stale})
	if l.sent != sent || len(l.replies) != 1 {
		t.Fatalf("stale answers caused %d sends and %d replies", l.sent-sent, len(l.replies)-1)
	}
	if stB.pending != 2 || stB.failed || len(stB.reads) != 0 {
		t.Fatalf("stale answers reached B: pending %d failed %v reads %d", stB.pending, stB.failed, len(stB.reads))
	}
	wantRecord(t, s0, w0, &Record{Locked: true})

	// B completes as if A had never existed.
	for _, m := range heldB {
		l.run(m)
	}
	if len(l.replies) != 2 || !bytes.Equal(l.replies[1], clientReply(OutcomeCommitted, a1, []byte("A1"))) {
		t.Fatalf("B replies %q", l.replies)
	}
	wantRecord(t, s0, w0, &Record{Value: []byte("B"), Version: 1})
	wantRecord(t, s1, w1, &Record{})
	if c.Committed != 1 || c.Aborted != 1 || len(c.inflight) != 0 {
		t.Fatalf("committed %d aborted %d in flight %d", c.Committed, c.Aborted, len(c.inflight))
	}
}

// TestReleasedTxnPinsNothing: a record on the free list holds no view
// of any payload, at any index up to its slices' capacity — including
// the ops a malformed request decoded before it was rejected.
func TestReleasedTxnPinsNothing(t *testing.T) {
	s0, s1 := NewStore(), NewStore()
	l, c := newLoop(s0, s1)
	l.run(txnMsg(Txn{
		Reads:  []Op{{Key: keyOn("a", 0)}, {Key: keyOn("a", 1)}},
		Writes: []Op{{Key: keyOn("w", 0), Value: []byte("v")}, {Key: keyOn("w", 1), Value: []byte("v")}},
	}))
	bad := txnMsg(Txn{
		Reads:  []Op{{Key: []byte("r1")}, {Key: []byte("r2")}, {Key: []byte("r3")}},
		Writes: []Op{{Key: []byte("w"), Value: []byte("v")}},
	})
	bad.Data = bad.Data[:len(bad.Data)-1]
	l.run(bad)
	if len(l.replies) != 2 || !bytes.Equal(l.replies[1], []byte{byte(OutcomeAborted)}) {
		t.Fatalf("replies %q", l.replies)
	}
	st := c.free.Take()
	if st == nil || c.free.Len() != 0 {
		t.Fatal("one record should be on the free list")
	}
	for _, ops := range append(append([][]Op{st.txn.Reads, st.txn.Writes}, st.readAt...), st.lockedAt...) {
		if len(ops) != 0 {
			t.Fatalf("released ops have length %d", len(ops))
		}
		for _, op := range ops[:cap(ops)] {
			if op.Key != nil || op.Value != nil {
				t.Fatalf("released record pins %q", op.Key)
			}
		}
	}
	for _, r := range st.reads[:cap(st.reads)] {
		if r.key != nil || r.val != nil {
			t.Fatalf("released record pins read %q", r.key)
		}
	}
	if st.id != 0 || st.client.Data != nil || st.pending != 0 || st.failed || st.committed || st.startedAt != 0 {
		t.Fatalf("released record not zeroed: %+v", st)
	}
}
