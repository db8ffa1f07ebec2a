package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/actor"
	"repro/internal/invariant"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/spec"
)

// observed is one outbound effect as the rest of the system saw it.
type observed struct {
	what string
	at   sim.Time // relative to the request that caused it
	size int
	flow uint64
	msg  actor.Msg
}

// TestRecycledCtxSameEffects: a handler that sends to a remote actor,
// sends to a local one and replies produces the same packets, in the
// same order, at the same offsets, whether its context is fresh or has
// been through the node's free list.
func TestRecycledCtxSameEffects(t *testing.T) {
	cl := NewCluster(1)
	n := cl.AddNode(Config{Name: "srv", NIC: spec.LiquidIOII_CN2350(), DisableMigration: true})
	const spacing = 100 * sim.Microsecond
	var log []observed
	rel := func() sim.Time { return cl.Eng.Now() % spacing }

	front := &actor.Actor{ID: 1, Name: "front", OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
		ctx.Send(2, actor.Msg{Kind: 7, Data: []byte("remote"), FlowID: m.FlowID})
		ctx.Send(3, actor.Msg{Kind: 8, Data: []byte("local"), FlowID: m.FlowID})
		ctx.Reply(m)
		return sim.Microsecond
	}}
	local := &actor.Actor{ID: 3, Name: "local", OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
		m.ArrivedAt, m.AuditSeq = 0, 0
		log = append(log, observed{what: "local exec", at: rel(), flow: m.FlowID, msg: m})
		return sim.Microsecond
	}}
	for _, a := range []*actor.Actor{front, local} {
		if err := n.Register(a, true, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	// Actor 2 lives on a node that is a bare network port, so the test
	// sees the packet itself.
	cl.Table.Set(2, actor.Ref{Node: "peer", OnNIC: true})
	capture := func(what string) netsim.Handler {
		return netsim.HandlerFunc(func(p *netsim.Packet) {
			o := observed{what: what, at: rel(), size: p.Size, flow: p.FlowID}
			switch pl := p.Payload.(type) {
			case *wireMsg:
				o.msg = pl.m
			case RespEnvelope:
				o.msg = pl.Msg
				pl.Fn(pl.Msg)
			}
			o.msg.ArrivedAt = 0 // absolute: differs between requests by design
			log = append(log, o)
		})
	}
	cl.Net.Attach("peer", 10, capture("packet to peer"))
	cl.Net.Attach("cli", 10, capture("reply to cli"))

	replies := 0
	const requests = 3
	for i := 0; i < requests; i++ {
		flow := uint64(i + 1)
		cl.Eng.At(sim.Time(i)*spacing, func() {
			n.Deliver(&netsim.Packet{Src: "cli", Dst: "srv", Size: 256, FlowID: flow,
				Payload: actor.Msg{Dst: 1, Data: []byte("req"), Reply: func(actor.Msg) { replies++ }}})
		})
	}
	cl.Eng.RunUntil(spacing - 1)
	// top peeks at the context the next handler will be given.
	top := func() *execCtx {
		c := n.freeCtx.Take()
		if c != nil {
			n.freeCtx.Put(c, maxFreeCtxs)
		}
		return c
	}
	pooled := top()
	if pooled == nil {
		t.Fatal("no context returned to the node's free list after the first request")
	}
	cl.Eng.Run()
	if replies != requests {
		t.Fatalf("%d replies, want %d", replies, requests)
	}
	if top() != pooled {
		t.Fatal("later requests did not reuse the pooled context")
	}

	per := len(log) / requests
	if per != 3 || len(log) != per*requests {
		t.Fatalf("%d effects observed over %d requests, want 3 each: %+v", len(log), requests, log)
	}
	first := log[:per]
	wantOrder := []string{"local exec", "packet to peer", "reply to cli"}
	for i, o := range first {
		if o.what != wantOrder[i] {
			t.Fatalf("effect %d is %q, want %q", i, o.what, wantOrder[i])
		}
	}
	if m := first[1].msg; m.Src != 1 || m.Dst != 2 || m.Kind != 7 || string(m.Data) != "remote" ||
		m.Via != actor.ViaWire || m.WireSize != first[1].size {
		t.Fatalf("remote send arrived as %+v (packet size %d)", m, first[1].size)
	}
	if m := first[0].msg; m.Src != 1 || m.Dst != 3 || m.Kind != 8 || string(m.Data) != "local" || m.Via != actor.ViaLocal {
		t.Fatalf("local send arrived as %+v", m)
	}
	if m := first[2].msg; m.Reply != nil || string(m.Data) != "req" || first[2].size != 256 {
		t.Fatalf("reply arrived as %+v (packet size %d)", m, first[2].size)
	}
	for r := 1; r < requests; r++ {
		for i, o := range log[r*per : (r+1)*per] {
			want := first[i]
			want.flow, want.msg.FlowID = uint64(r+1), uint64(r+1)
			if !reflect.DeepEqual(o, want) {
				t.Fatalf("request %d effect %d on a recycled context:\n got %+v\nwant %+v", r+1, i, o, want)
			}
		}
	}
}

// TestInitCtxImmediateAndUnpooled: OnInit runs off the data path — its
// effects are performed at once, not after a service time, and its
// context never enters the node's free list.
func TestInitCtxImmediateAndUnpooled(t *testing.T) {
	cl := NewCluster(1)
	n := cl.AddNode(Config{Name: "srv", NIC: spec.LiquidIOII_CN2350(), DisableMigration: true})
	got := 0
	sink := &actor.Actor{ID: 1, OnMessage: func(actor.Ctx, actor.Msg) sim.Time { got++; return sim.Microsecond }}
	if err := n.Register(sink, true, 1<<20); err != nil {
		t.Fatal(err)
	}
	boot := &actor.Actor{ID: 2,
		OnInit:    func(ctx actor.Ctx) { ctx.Send(1, actor.Msg{Kind: 1}) },
		OnMessage: func(actor.Ctx, actor.Msg) sim.Time { return sim.Microsecond },
	}
	if err := n.Register(boot, true, 1<<20); err != nil {
		t.Fatal(err)
	}
	if n.Sched.QueueBacklog() != 1 {
		t.Fatalf("scheduler backlog %d right after Register, want the OnInit message already queued", n.Sched.QueueBacklog())
	}
	if n.freeCtx.Len() != 0 {
		t.Fatalf("OnInit context was pooled (%d on the free list)", n.freeCtx.Len())
	}
	cl.Eng.Run()
	if got != 1 {
		t.Fatalf("sink executed %d messages, want 1", got)
	}
}

// TestObjReadViewBorrowedUntilHandlerReturns: ObjRead lends the handler a
// view of the object's bytes. Without the checker a handler that keeps
// it is simply reading the object, whatever it holds later. Under the
// invariant checker the handler is lent a private copy that is
// overwritten with invariant.PoisonByte the moment the handler returns —
// the kept slice reads as garbage at once — while the object and the
// handler's own results are untouched.
func TestObjReadViewBorrowedUntilHandlerReturns(t *testing.T) {
	for _, checked := range []bool{false, true} {
		cl := NewCluster(1)
		if checked {
			cl.AttachCheckers()
		}
		n := cl.AddNode(Config{Name: "srv", NIC: spec.LiquidIOII_CN2350(), DisableMigration: true})
		var obj uint64
		var kept []byte
		var during string
		a := &actor.Actor{ID: 1,
			OnInit: func(ctx actor.Ctx) {
				obj, _ = ctx.Alloc(16)
				ctx.ObjWrite(obj, 0, []byte("secret-0"))
			},
			OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
				v, err := ctx.ObjRead(obj, 0, 8)
				if err != nil || cap(v) != len(v) {
					t.Fatalf("ObjRead = %q (cap %d), %v", v, cap(v), err)
				}
				during = string(v)
				kept = v // the bug: the borrow ends with the handler
				return sim.Microsecond
			}}
		if err := n.Register(a, true, 1<<20); err != nil {
			t.Fatal(err)
		}
		n.Inject(actor.Msg{Dst: 1})
		cl.Eng.Run()
		if during != "secret-0" {
			t.Fatalf("checked=%v: handler read %q", checked, during)
		}
		if now, _ := n.Objects.Read(1, obj, 0, 8); string(now) != "secret-0" {
			t.Fatalf("checked=%v: the object reads %q after the handler", checked, now)
		}
		want := "secret-0"
		if checked {
			want = string(bytes.Repeat([]byte{invariant.PoisonByte}, 8))
		}
		if string(kept) != want {
			t.Fatalf("checked=%v: the kept view reads %q after the handler returned, want %q", checked, kept, want)
		}
		if err := cl.Checker().Err(); err != nil {
			t.Fatalf("checked=%v: %v", checked, err)
		}
	}
}
