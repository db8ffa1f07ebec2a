package bench

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/actor"
	"repro/internal/apps/rkv"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestAppAllocBudget pins what one completed application request costs
// the host in heap allocations, setup and request generation included,
// counted exactly (MemStats.Mallocs around a whole run — the run is
// deterministic, so the count repeats). It is the in-tree floor under
// the benchmark's dt_host and rkv_* workloads: a DT transaction is ten
// node→node messages on baseline nodes, an RKV request a Paxos round
// plus skip-list walks over DMO reads and a crossing of the host↔NIC
// rings, and the runtime's share of both — wire records, arrivals, call
// records, ObjRead views, ring handles, flush and read records, DMA
// transfer records, and the packets, which the network carries in its
// flights — is recycled (DESIGN.md §4). What is left is the
// applications' own encoding and state and the two allocations per
// client request the reply contract pins. Measured 16.27 and 5.21
// (17.78 and 5.70 under -race, where fmt's sync.Pool is off and the
// request generators' Sprintf calls allocate). DT was 79.87 with a
// record per message made afresh and 51.63 while its own messages grew
// bytes.Buffers, copied every decoded key and value, and kept four maps
// per transaction; it now recycles its transaction records and makes
// one exact-size payload per protocol message, and that is its floor:
// those payloads and the client reply (≈ 9.3, TestProtocolAllocBudget),
// the request generator's keys, value and EncodeTxn (≈ 2.9), the two
// the reply contract pins (benchmark/layers.go: the request Msg boxed
// into its Packet and the reply's RespEnvelope), and the deployment's
// setup spread over the run. RKV's replication round allocates one
// payload per PUT, the leader's accept, which the followers keep as
// views and the learn resends, and its status-only replies share one
// payload per status; the row checks that those still hold their byte
// after the run and that no status-only reply had a payload of its own.
// RKV was 7.14 while every reply Packet was a heap allocation and each
// status-only reply made its own byte (most of this row's requests are
// GETs that miss); 7.75 while the Paxos log kept a
// heap record per instance, followers copied every command twice and
// answered with fresh payloads, the leader encoded its learn afresh,
// and a node-owned list of wire records ran dry on the leader; 12.18
// while every ring crossing boxed its message and allocated its DMA
// job, flush copy and poll batch; 16.02 while the DMO table kept a heap
// record per object and the memtable's encodings allocated; and 32.32
// with a record per message made afresh. Each budget is its -race floor
// plus less than one.
func TestAppAllocBudget(t *testing.T) {
	const window = 20 * sim.Millisecond
	// kept holds the payload of the first status-only RKV reply of each
	// status; unshared counts the later ones that had another payload.
	var kept [256][]byte
	unshared := 0
	keep := func(resp actor.Msg) {
		if len(resp.Data) != 1 {
			return
		}
		switch st := resp.Data[0]; {
		case kept[st] == nil:
			kept[st] = resp.Data
		case &kept[st][0] != &resp.Data[0]:
			unshared++
		}
	}
	// runRKV(Options{}, 10, true, 512, 8, window), with keep observing
	// every reply.
	rkvKept := func() appRun {
		cl, leaders := rkvCluster(Options{}, core.Config{NIC: nicFor(10, true), LinkGbps: 10}, true)
		client := workload.NewClient(cl, "cli", 10)
		gen := rkvMix(cl, leaders, 512, 512/4)
		client.ClosedLoop(8*len(leaders), window, func(i uint64) workload.Request {
			r := gen(i)
			r.OnResp = keep
			return r
		})
		cl.Eng.RunUntil(window)
		return collect(cl, client, window, nil)
	}
	for _, tc := range []struct {
		name   string
		run    func() appRun
		budget float64
	}{
		{"dt-host", func() appRun { return runDT(Options{}, 10, false, 512, 8, window) }, 18.5},
		{"rkv-offloaded", rkvKept, 6.5},
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r := tc.run()
		runtime.ReadMemStats(&m1)
		received := math.Round(r.tput * window.Seconds())
		if received < 1000 {
			t.Fatalf("%s: only %.0f requests completed", tc.name, received)
		}
		perReq := float64(m1.Mallocs-m0.Mallocs) / received
		t.Logf("%s: %.2f allocations per completed request (%.0f requests)", tc.name, perReq, received)
		if perReq > tc.budget {
			t.Errorf("%s: %.2f allocations per completed request, budget %v", tc.name, perReq, tc.budget)
		}
	}
	for _, st := range []rkv.Status{rkv.StatusOK, rkv.StatusNotFound} {
		if p := kept[st]; len(p) != 1 || cap(p) != 1 || p[0] != byte(st) {
			t.Errorf("rkv-offloaded: the shared %v payload is %v (cap %d) after the run, want [%d] with cap 1", st, p, cap(p), st)
		}
	}
	if unshared != 0 {
		t.Errorf("rkv-offloaded: %d status-only replies had a payload of their own", unshared)
	}
}
