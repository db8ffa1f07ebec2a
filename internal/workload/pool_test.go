package workload

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
)

// The client's pooled call records, counted exactly (free-list length,
// testing.AllocsPerRun): which requests recycle their record, what a
// request costs once they do, and what the invariant checker sees when a
// server answers one request twice.

// replyCluster is one offloaded node whose actor 1 answers every request
// `answers` times, plus a client.
func replyCluster(answers int) (*core.Cluster, *Client) {
	cl := core.NewCluster(1)
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350(), DisableMigration: true})
	err := n.Register(&actor.Actor{ID: 1, PinNIC: true, OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
		for i := 0; i < answers; i++ {
			ctx.Reply(m)
		}
		return sim.Microsecond
	}}, true, 1<<20)
	if err != nil {
		panic(err)
	}
	return cl, NewClient(cl, "cli", 10)
}

// TestClientAllocBudget: in steady state a closed-loop request costs
// three allocations end to end — the request Msg boxed into its packet's
// payload, the reply Packet and the boxed RespEnvelope, all three pinned
// by the reply contract (DESIGN.md §4) — and nothing in the client: the
// call record, its bound reply continuation and the loop's continuation
// are reused.
func TestClientAllocBudget(t *testing.T) {
	cl, client := replyCluster(1)
	const depth = 4
	round := func() {
		client.ClosedLoop(depth, 200*sim.Microsecond, func(i uint64) Request {
			return Request{Node: "srv", Dst: 1, Size: 256, FlowID: i}
		})
		cl.Eng.Run()
	}
	round()
	const runs = 20
	before := client.Received
	perRound := testing.AllocsPerRun(runs, round)
	reqs := float64(client.Received-before) / (runs + 1) // AllocsPerRun warms up with one more
	if reqs < 50 {
		t.Fatalf("only %.0f requests per round", reqs)
	}
	// What a round allocates beyond its requests is the loop itself: its
	// closures and the variables they share, made once per ClosedLoop.
	if loop := perRound - 3*reqs; loop < 0 || loop > 8 {
		t.Fatalf("%.0f allocations per round of %.0f requests: 3 per request leaves %.0f, want the loop's own few", perRound, reqs, loop)
	}
	if n := client.free.Len(); n != depth {
		t.Fatalf("%d call records on the free list after depth-%d loops", n, depth)
	}
}

// TestTimedRequestNeverPooled: a request with a timeout keeps its record
// to itself — a late duplicate or a pending timer may still hold it — so
// nothing it used ever reaches the free list, and an untimed request
// sent afterwards gets a record of its own.
func TestTimedRequestNeverPooled(t *testing.T) {
	cl, client := replyCluster(1)
	for i := 0; i < 20; i++ {
		client.Send(Request{Node: "srv", Dst: 1, Size: 256, FlowID: uint64(i),
			Timeout: 50 * sim.Microsecond, Retries: 2, OnGiveUp: func() {}})
	}
	cl.Eng.Run()
	if client.Received != 20 {
		t.Fatalf("received %d of 20", client.Received)
	}
	if n := client.free.Len(); n != 0 {
		t.Fatalf("%d timed call records were pooled", n)
	}
	client.Send(Request{Node: "srv", Dst: 1, Size: 256})
	cl.Eng.Run()
	if client.Received != 21 || client.free.Len() != 1 {
		t.Fatalf("received=%d pooled=%d after one untimed request, want 21 and 1", client.Received, client.free.Len())
	}
}

// TestCallReleasedBeforeOnResp: the record is back on the list when
// OnResp runs, so the request OnResp sends reuses it — a chain of any
// length needs one record.
func TestCallReleasedBeforeOnResp(t *testing.T) {
	cl, client := replyCluster(1)
	left := 100
	var onResp func(actor.Msg)
	onResp = func(actor.Msg) {
		if left--; left > 0 {
			client.Send(Request{Node: "srv", Dst: 1, Size: 256, OnResp: onResp})
		}
	}
	client.Send(Request{Node: "srv", Dst: 1, Size: 256, OnResp: onResp})
	cl.Eng.Run()
	if client.Received != 100 || client.free.Len() != 1 {
		t.Fatalf("received=%d pooled=%d, want 100 requests through 1 record", client.Received, client.free.Len())
	}
}

// TestCallListBounded: a burst past the cap leaves the cap pinned.
func TestCallListBounded(t *testing.T) {
	cl, client := replyCluster(1)
	const burst = maxFreeCalls + 50
	for i := 0; i < burst; i++ {
		client.Send(Request{Node: "srv", Dst: 1, Size: 64, FlowID: uint64(i)})
	}
	cl.Eng.Run()
	if client.Received != burst || client.free.Len() != maxFreeCalls {
		t.Fatalf("received=%d pooled=%d after a burst of %d, want all and the cap %d", client.Received, client.free.Len(), burst, maxFreeCalls)
	}
}

// TestDoubleReplyOnPooledCall: a server that answers one untimed request
// twice. The first answer completes the request either way. Under the
// invariant checker the record is poisoned, not recycled, and the second
// answer is a use-after-release violation at the record it lands on.
func TestDoubleReplyOnPooledCall(t *testing.T) {
	cl, client := replyCluster(2)
	chk := cl.AttachCheckers()[0]
	resps := 0
	client.Send(Request{Node: "srv", Dst: 1, Size: 256, OnResp: func(actor.Msg) { resps++ }})
	cl.Eng.Run()
	if client.Received != 1 || resps != 1 || client.Lat.Count() != 1 {
		t.Fatalf("received=%d OnResp=%d samples=%d, want 1 each", client.Received, resps, client.Lat.Count())
	}
	if client.free.Len() != 0 {
		t.Fatal("a call record was recycled under the checker")
	}
	vs := chk.Violations()
	if len(vs) != 1 || vs[0].Rule != "use-after-release" {
		t.Fatalf("violations %v, want one use-after-release for the second answer", vs)
	}

	// With a timeout the second answer is an ordinary late duplicate.
	cl, client = replyCluster(2)
	chk = cl.AttachCheckers()[0]
	client.Send(Request{Node: "srv", Dst: 1, Size: 256, Timeout: sim.Millisecond})
	cl.Eng.Run()
	if client.Received != 1 || chk.Err() != nil {
		t.Fatalf("timed request: received=%d err=%v, want 1 and no violation", client.Received, chk.Err())
	}
}

// TestClosedLoopViaCarriesContinuation: the loop's continuation rides in
// the Request, so a send path that passes the Request on — here one that
// also rewrites an exported field — keeps the loop going.
func TestClosedLoopViaCarriesContinuation(t *testing.T) {
	cl, client := replyCluster(1)
	sends := 0
	client.ClosedLoopVia(2, 200*sim.Microsecond, func(i uint64) Request {
		return Request{Node: "srv", Dst: 1, FlowID: i}
	}, func(r Request) {
		sends++
		r.Size = 128
		client.Send(r)
	})
	cl.Eng.Run()
	if sends < 20 || client.Received != uint64(sends) {
		t.Fatalf("%d sends, %d received: the loop stalled", sends, client.Received)
	}
}
