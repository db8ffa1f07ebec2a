package dt

import (
	"bytes"
	"testing"

	"repro/internal/actor"
	"repro/internal/sim"
)

// sinkCtx captures sends for handler-level protocol tests.
type sinkCtx struct {
	sent []actor.Msg
}

func (c *sinkCtx) Now() sim.Time { return 0 }
func (c *sinkCtx) Send(dst actor.ID, m actor.Msg) {
	m.Dst = dst
	c.sent = append(c.sent, m)
}
func (c *sinkCtx) Reply(m actor.Msg)                            {}
func (c *sinkCtx) Alloc(size int) (uint64, error)               { return 1, nil }
func (c *sinkCtx) Free(obj uint64) error                        { return nil }
func (c *sinkCtx) ObjRead(o uint64, off, n int) ([]byte, error) { return make([]byte, n), nil }
func (c *sinkCtx) ObjWrite(o uint64, off int, p []byte) error   { return nil }
func (c *sinkCtx) ObjMigrate(o uint64) (int, error)             { return 0, nil }
func (c *sinkCtx) Accel(string, int, int) (sim.Time, bool)      { return 0, false }

// phase1Msg builds a kindPhase1 message for one read and one lock key.
func phase1Msg(txn uint64, reads, locks [][]byte) actor.Msg {
	var w wbuf
	w.u64(txn)
	w.u8(byte(len(reads)))
	for _, k := range reads {
		w.blob(k)
	}
	w.u8(byte(len(locks)))
	for _, k := range locks {
		w.blob(k)
	}
	return actor.Msg{Kind: kindPhase1, Src: 999, Data: w}
}

func parsePhase1Resp(t *testing.T, m actor.Msg) (txn uint64, ok bool, vals map[string][]byte, vers map[string]uint64) {
	t.Helper()
	if m.Kind != kindPhase1Resp {
		t.Fatalf("kind %d", m.Kind)
	}
	r := rbuf{m.Data}
	txn = r.u64()
	ok = r.u8() == 1
	n := int(r.u8())
	vals = map[string][]byte{}
	vers = map[string]uint64{}
	for i := 0; i < n; i++ {
		k := string(r.blob())
		vals[k] = append([]byte(nil), r.blob16()...)
		vers[k] = r.u64()
	}
	return
}

func TestParticipantPhase1LocksAndReads(t *testing.T) {
	st := NewStore()
	st.put([]byte("r1"), &Record{Value: []byte("v1"), version: 3})
	p := NewParticipant(1, st)
	ctx := &sinkCtx{}
	p.OnMessage(ctx, phase1Msg(7, [][]byte{[]byte("r1")}, [][]byte{[]byte("w1")}))
	txn, ok, vals, vers := parsePhase1Resp(t, ctx.sent[0])
	if txn != 7 || !ok {
		t.Fatalf("txn=%d ok=%v", txn, ok)
	}
	if string(vals["r1"]) != "v1" || vers["r1"] != 3 {
		t.Fatalf("read result %q v%d", vals["r1"], vers["r1"])
	}
	if rec := st.Get([]byte("w1")); rec == nil || !rec.locked {
		t.Fatal("write key not locked")
	}
}

func TestParticipantPhase1FailsOnLockedKey(t *testing.T) {
	st := NewStore()
	st.put([]byte("w1"), &Record{locked: true})
	p := NewParticipant(1, st)
	ctx := &sinkCtx{}
	p.OnMessage(ctx, phase1Msg(8, nil, [][]byte{[]byte("w1")}))
	_, ok, _, _ := parsePhase1Resp(t, ctx.sent[0])
	if ok {
		t.Fatal("phase 1 succeeded against a held lock")
	}
}

func TestParticipantValidateDetectsVersionChange(t *testing.T) {
	st := NewStore()
	st.put([]byte("k"), &Record{version: 5})
	p := NewParticipant(1, st)
	validate := func(ver uint64) bool {
		ctx := &sinkCtx{}
		var w wbuf
		w.u64(9)
		w.blob([]byte("k"))
		w.u64(ver)
		p.OnMessage(ctx, actor.Msg{Kind: kindValidate, Src: 999, Data: w})
		r := rbuf{ctx.sent[0].Data}
		r.u64()
		return r.u8() == 1
	}
	if !validate(5) {
		t.Fatal("matching version failed validation")
	}
	if validate(4) {
		t.Fatal("stale version passed validation")
	}
	// A locked key fails validation regardless of version.
	st.Get([]byte("k")).locked = true
	if validate(5) {
		t.Fatal("locked key passed validation")
	}
}

func TestParticipantCommitInstallsAndUnlocks(t *testing.T) {
	st := NewStore()
	st.put([]byte("w"), &Record{Value: []byte("old"), version: 2, locked: true})
	p := NewParticipant(1, st)
	ctx := &sinkCtx{}
	var w wbuf
	w.u64(10)
	w.blob([]byte("w"))
	w.blob16([]byte("new"))
	p.OnMessage(ctx, actor.Msg{Kind: kindCommit, Src: 999, Data: w})
	rec := st.Get([]byte("w"))
	if string(rec.Value) != "new" || rec.version != 3 || rec.locked {
		t.Fatalf("post-commit record: %q v%d locked=%v", rec.Value, rec.version, rec.locked)
	}
	if ctx.sent[0].Kind != kindCommitAck {
		t.Fatal("no commit ack")
	}
}

// TestProtocolAllocBudget: once warm, a DT handler allocates exactly one
// payload per message it sends and nothing else — each participant
// handler, and a whole transaction through the coordinator and both
// participants, reply included.
func TestProtocolAllocBudget(t *testing.T) {
	st := NewStore()
	st.put([]byte("r"), &Record{Value: []byte("value-r"), version: 3})
	p := NewParticipant(1, st)
	ctx := &sinkCtx{}
	build := func(kind actor.Kind, keys ...string) actor.Msg {
		var w wbuf
		w.u64(7)
		for _, k := range keys {
			w.blob([]byte(k))
			switch kind {
			case kindValidate:
				w.u64(3)
			case kindCommit:
				w.blob16([]byte("new-value"))
			}
		}
		return actor.Msg{Kind: kind, Src: 999, Data: w}
	}
	phase1 := phase1Msg(7, [][]byte{[]byte("r"), []byte("r2")}, [][]byte{[]byte("w"), []byte("r")})
	validate := build(kindValidate, "r")
	commit := build(kindCommit, "w")
	abort := build(kindAbort, "w", "r")
	for _, tc := range []struct {
		name string
		msgs []actor.Msg
		sent int
	}{
		// phase 1 locks w and r; the abort releases them for the next run.
		{"phase1+abort", []actor.Msg{phase1, abort}, 1},
		{"validate", []actor.Msg{validate}, 1},
		{"commit", []actor.Msg{commit}, 1},
		{"abort", []actor.Msg{abort}, 0},
	} {
		run := func() {
			ctx.sent = ctx.sent[:0]
			for _, m := range tc.msgs {
				p.OnMessage(ctx, m)
			}
		}
		run()
		if len(ctx.sent) != tc.sent {
			t.Fatalf("%s sent %d messages, want %d", tc.name, len(ctx.sent), tc.sent)
		}
		if got := testing.AllocsPerRun(100, run); got != float64(tc.sent) {
			t.Errorf("%s: %v allocations, want %d (one per message sent)", tc.name, got, tc.sent)
		}
	}
	if !bytes.Equal(st.Get([]byte("w")).Value, []byte("new-value")) {
		t.Fatal("commit did not install")
	}

	l, _ := newLoop(NewStore(), NewStore())
	txn := txnMsg(Txn{
		Reads:  []Op{{Key: keyOn("r", 0)}, {Key: keyOn("r", 1)}},
		Writes: []Op{{Key: keyOn("w", 1), Value: make([]byte, 128)}},
	})
	cycle := func() {
		l.sent, l.replies = 0, l.replies[:0]
		l.run(txn)
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	msgs := l.sent + len(l.replies)
	if msgs != 11 || !bytes.Equal(l.replies[0][:1], []byte{byte(OutcomeCommitted)}) {
		t.Fatalf("cycle: %d messages, reply %q", msgs, l.replies)
	}
	if got := testing.AllocsPerRun(100, cycle); got != float64(msgs) {
		t.Errorf("transaction: %v allocations, want %d (one per message sent)", got, msgs)
	}
}

func TestParticipantAbortUnlocksOnly(t *testing.T) {
	st := NewStore()
	st.put([]byte("w"), &Record{Value: []byte("keep"), version: 2, locked: true})
	p := NewParticipant(1, st)
	ctx := &sinkCtx{}
	var w wbuf
	w.u64(11)
	w.blob([]byte("w"))
	p.OnMessage(ctx, actor.Msg{Kind: kindAbort, Src: 999, Data: w})
	rec := st.Get([]byte("w"))
	if rec.locked {
		t.Fatal("abort did not unlock")
	}
	if string(rec.Value) != "keep" || rec.version != 2 {
		t.Fatal("abort modified the record")
	}
	if len(ctx.sent) != 0 {
		t.Fatal("abort should not be acknowledged")
	}
}
