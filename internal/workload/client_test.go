package workload_test

import (
	"fmt"
	"testing"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

func echoCluster(t *testing.T, seed uint64, cost sim.Time) (*core.Cluster, *workload.Client) {
	t.Helper()
	cl := core.NewCluster(seed)
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350()})
	if err := n.Register(&actor.Actor{
		ID: 1,
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			ctx.Reply(m)
			return cost
		},
	}, true, 0); err != nil {
		t.Fatal(err)
	}
	return cl, workload.NewClient(cl, "cli", 10)
}

func TestOpenLoopRate(t *testing.T) {
	cl, client := echoCluster(t, 1, sim.Microsecond)
	const rate = 100000.0
	window := 20 * sim.Millisecond
	client.OpenLoop(rate, window, func(i uint64) workload.Request {
		return workload.Request{Node: "srv", Dst: 1, Size: 256, FlowID: i}
	})
	cl.Eng.Run()
	want := rate * window.Seconds()
	got := float64(client.Sent)
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("open loop sent %.0f, want ≈%.0f", got, want)
	}
	if client.Received != client.Sent {
		t.Fatalf("responses %d of %d", client.Received, client.Sent)
	}
}

func TestOpenLoopZeroRateNoop(t *testing.T) {
	cl, client := echoCluster(t, 2, sim.Microsecond)
	client.OpenLoop(0, 10*sim.Millisecond, func(i uint64) workload.Request {
		return workload.Request{Node: "srv", Dst: 1}
	})
	cl.Eng.Run()
	if client.Sent != 0 {
		t.Fatal("zero-rate open loop sent requests")
	}
}

func TestClosedLoopKeepsDepthOutstanding(t *testing.T) {
	cl, client := echoCluster(t, 3, 10*sim.Microsecond)
	const depth = 4
	maxInFlight := uint64(0)
	client.ClosedLoop(depth, 5*sim.Millisecond, func(i uint64) workload.Request {
		return workload.Request{Node: "srv", Dst: 1, Size: 256, FlowID: i}
	})
	for at := sim.Time(0); at < 5*sim.Millisecond; at += 100 * sim.Microsecond {
		cl.Eng.At(at, func() {
			if f := client.Sent - client.Received; f > maxInFlight {
				maxInFlight = f
			}
		})
	}
	cl.Eng.Run()
	if maxInFlight > depth {
		t.Fatalf("in-flight %d exceeded depth %d", maxInFlight, depth)
	}
	if client.Received != client.Sent {
		t.Fatalf("responses %d of %d", client.Received, client.Sent)
	}
	// Closed loop should keep the pipe ~full: RTT ≈ 15µs, so expect
	// roughly depth×window/RTT completions; demand at least half that.
	if client.Received < 600 {
		t.Fatalf("closed loop only completed %d requests", client.Received)
	}
}

func TestRetryCountsOnce(t *testing.T) {
	// Without loss, retries should never fire and each response counts
	// exactly once even with aggressive timeouts (slightly above RTT so
	// a race between response and timer is resolved by the done-latch).
	cl, client := echoCluster(t, 4, 2*sim.Microsecond)
	for i := 0; i < 50; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*50*sim.Microsecond, func() {
			client.Send(workload.Request{
				Node: "srv", Dst: 1, Size: 256, FlowID: uint64(i),
				Timeout: 30 * sim.Microsecond, Retries: 3,
			})
		})
	}
	cl.Eng.Run()
	if client.Received != 50 {
		t.Fatalf("received %d, want exactly 50 (no double-count)", client.Received)
	}
}

func TestRetryFiresUnderTotalLoss(t *testing.T) {
	cl, client := echoCluster(t, 5, sim.Microsecond)
	cl.Net.LossRate = 1.0 // nothing gets through
	client.Send(workload.Request{
		Node: "srv", Dst: 1, Size: 128,
		Timeout: 50 * sim.Microsecond, Retries: 4,
	})
	cl.Eng.Run()
	if client.Retried != 4 {
		t.Fatalf("retried %d times, want all 4", client.Retried)
	}
	if client.Received != 0 {
		t.Fatal("received a response through a fully lossy network")
	}
}

// TestBackoffUncappedSaturates is the regression test for the backoff
// overflow: with Backoff > 1, MaxTimeout == 0, and enough retries under
// total loss, the grown interval used to double past int64 nanoseconds
// and wrap negative, handing the engine a timer in the past. The fix
// saturates at MaxUncappedTimeout; the give-up path must still fire.
func TestBackoffUncappedSaturates(t *testing.T) {
	cl, client := echoCluster(t, 6, sim.Microsecond)
	cl.Net.LossRate = 1.0
	gaveUp := 0
	const retries = 80 // 1µs doubled 80× ≫ int64 range without the clamp
	client.Send(workload.Request{
		Node: "srv", Dst: 1, Size: 128,
		Timeout: sim.Microsecond, Retries: retries, Backoff: 2,
		OnGiveUp: func() { gaveUp++ },
	})
	cl.Eng.Run()
	if client.Retried != retries {
		t.Fatalf("retried %d times, want all %d", client.Retried, retries)
	}
	if gaveUp != 1 {
		t.Fatalf("OnGiveUp fired %d times, want exactly 1", gaveUp)
	}
	// Saturated growth: the run ends within retries × MaxUncappedTimeout
	// plus the pre-saturation ramp, never at a wrapped-negative time.
	if now := cl.Eng.Now(); now <= 0 || now > sim.Time(retries+2)*workload.MaxUncappedTimeout {
		t.Fatalf("engine ended at %v; backoff growth did not saturate sanely", now)
	}
}

// TestBackoffHonorsMaxTimeout pins the explicit-cap path: growth stops
// at MaxTimeout, so the whole retry ladder fits in a known window.
func TestBackoffHonorsMaxTimeout(t *testing.T) {
	cl, client := echoCluster(t, 7, sim.Microsecond)
	cl.Net.LossRate = 1.0
	client.Send(workload.Request{
		Node: "srv", Dst: 1, Size: 128,
		Timeout: 10 * sim.Microsecond, Retries: 10, Backoff: 3,
		MaxTimeout: 40 * sim.Microsecond,
	})
	cl.Eng.Run()
	// Ladder: 10+30+40×9 = 400µs of waits; allow slack for wire time.
	if now := cl.Eng.Now(); now > 500*sim.Microsecond {
		t.Fatalf("run ended at %v, want ≤ 500µs with a 40µs cap", now)
	}
	if client.Retried != 10 {
		t.Fatalf("retried %d, want 10", client.Retried)
	}
}

// rejectAllQoS denies every non-control admission, counting calls.
type rejectAllQoS struct{ offered, latencies int }

func (q *rejectAllQoS) Admit(tenant uint16, class uint8, now sim.Time) bool {
	q.offered++
	return false
}
func (q *rejectAllQoS) Latency(tenant uint16, class uint8, us float64) { q.latencies++ }

// TestQoSRejectAccounting pins the edge-shed accounting contract (see
// the Client counter docs): an admission-denied request is Rejected,
// never Sent, fires OnGiveUp exactly once, records no latency, and
// still counts toward the offered total, Sent + Rejected.
func TestQoSRejectAccounting(t *testing.T) {
	cl, client := echoCluster(t, 8, sim.Microsecond)
	q := &rejectAllQoS{}
	client.SetQoS(q)
	gaveUp := 0
	cl.Eng.At(0, func() {
		client.Send(workload.Request{
			Node: "srv", Dst: 1, Size: 128,
			Timeout: 10 * sim.Microsecond, Retries: 3,
			OnGiveUp: func() { gaveUp++ },
		})
	})
	cl.Eng.Run()
	if client.Sent != 0 || client.Rejected != 1 {
		t.Fatalf("Sent=%d Rejected=%d, want 0/1: rejects must not count as sends",
			client.Sent, client.Rejected)
	}
	if gaveUp != 1 {
		t.Fatalf("OnGiveUp fired %d times, want exactly 1 (no retry of a shed request)", gaveUp)
	}
	if client.Lat.Count() != 0 {
		t.Fatalf("latency samples %d, want 0 for a request that never left the edge", client.Lat.Count())
	}
	if offered := client.Sent + client.Rejected; offered != 1 {
		t.Fatalf("Sent + Rejected = %d, want 1", offered)
	}
	if client.Retried != 0 || q.latencies != 0 {
		t.Fatalf("Retried=%d qosLatencies=%d, want 0/0", client.Retried, q.latencies)
	}
}

// TestPlacementRejectsOutOfRangePartition: placing a client or a port
// on a partition the cluster does not have is a construction bug, and
// classic and partitioned clusters report it with the same descriptive
// panic (the partitioned path used to die on a bare index out of range,
// and NewClientAt read its engine before any check ran).
func TestPlacementRejectsOutOfRangePartition(t *testing.T) {
	mustPanic := func(name string, parts int, place func(*core.Cluster)) {
		t.Helper()
		defer func() {
			want := fmt.Sprintf("netsim: partition %d out of range (network has %d)", parts, parts)
			if got := fmt.Sprint(recover()); got != want {
				t.Errorf("%s on %d partition(s): panic %q, want %q", name, parts, got, want)
			}
		}()
		place(core.NewPartitionedCluster(1, parts))
	}
	for _, parts := range []int{1, 2} {
		mustPanic("NewClientAt", parts, func(cl *core.Cluster) { workload.NewClientAt(cl, "cli", 10, parts) })
		mustPanic("AttachOn", parts, func(cl *core.Cluster) { cl.Net.AttachOn("port", 10, nil, parts) })
	}
	cl := core.NewPartitionedCluster(1, 2)
	if c := workload.NewClientAt(cl, "ok", 10, 1); c.Eng() != cl.Group.Engine(1) {
		t.Error("client on partition 1 does not run on partition 1's engine")
	}
}

// TestLateDuplicateReplyCountedOnce: a server slower than the timeout
// answers the original and every retry; the first answer completes the
// request and the late duplicates are dropped — one Received, one
// latency sample, one OnResp.
func TestLateDuplicateReplyCountedOnce(t *testing.T) {
	cl, client := echoCluster(t, 7, 40*sim.Microsecond)
	resps, gaveUp := 0, 0
	client.Send(workload.Request{
		Node: "srv", Dst: 1, Size: 256, FlowID: 1,
		Timeout: 20 * sim.Microsecond, Retries: 2,
		OnResp:   func(actor.Msg) { resps++ },
		OnGiveUp: func() { gaveUp++ },
	})
	cl.Eng.Run()
	if client.Retried != 2 {
		t.Fatalf("retried %d times, want 2 (the first answer needs > 2 timeouts)", client.Retried)
	}
	if client.Sent != 1 || client.Received != 1 || client.Lat.Count() != 1 || resps != 1 {
		t.Fatalf("sent=%d received=%d samples=%d OnResp=%d, want 1 each",
			client.Sent, client.Received, client.Lat.Count(), resps)
	}
	if gaveUp != 0 {
		t.Fatal("gave up on a request that was answered")
	}
	if us := client.Lat.Percentile(50); us < 40 || us > 60 {
		t.Fatalf("latency %vµs: must be measured from the first transmission to the first answer", us)
	}
}

// TestGiveUpIgnoresLaterReply: once the last timeout has expired the
// request is lost from the client's point of view, and an answer that
// arrives afterwards changes nothing.
func TestGiveUpIgnoresLaterReply(t *testing.T) {
	cl, client := echoCluster(t, 8, 200*sim.Microsecond)
	resps, gaveUp := 0, 0
	var gaveUpAt sim.Time
	client.Send(workload.Request{
		Node: "srv", Dst: 1, Size: 256, FlowID: 1,
		Timeout: 10 * sim.Microsecond, Retries: 1,
		OnResp:   func(actor.Msg) { resps++ },
		OnGiveUp: func() { gaveUp++; gaveUpAt = cl.Eng.Now() },
	})
	cl.Eng.Run()
	if gaveUp != 1 || gaveUpAt != 20*sim.Microsecond {
		t.Fatalf("gave up %d times at %v, want once at 20µs", gaveUp, gaveUpAt)
	}
	if cl.Eng.Now() < 200*sim.Microsecond {
		t.Fatalf("run ended at %v: the late answers never arrived", cl.Eng.Now())
	}
	if client.Received != 0 || client.Lat.Count() != 0 || resps != 0 {
		t.Fatalf("received=%d samples=%d OnResp=%d after giving up, want 0",
			client.Received, client.Lat.Count(), resps)
	}
	if client.Sent != 1 || client.Retried != 1 {
		t.Fatalf("sent=%d retried=%d, want 1 and 1", client.Sent, client.Retried)
	}
}
