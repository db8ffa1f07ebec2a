package bench

import (
	"runtime"
	"testing"

	"repro/internal/sim"
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
// transfer records — is recycled (DESIGN.md §4). What is left is the
// applications' own encoding and state and the three allocations per
// client request the reply contract pins. Measured 17.28 and 7.14 (18.76
// and 7.65 under -race, where fmt's sync.Pool is off and the request
// generators' Sprintf calls allocate). DT was 79.87 with a record per
// message made afresh and 51.63 while its own messages grew
// bytes.Buffers, copied every decoded key and value, and kept four maps
// per transaction; it now recycles its transaction records and makes
// one exact-size payload per protocol message, and that is its floor:
// those payloads and the client reply (≈ 9.3, TestProtocolAllocBudget),
// the request generator's keys, value and EncodeTxn (≈ 2.9), the three
// the reply contract pins (benchmark/layers.go: the request Msg boxed
// into its Packet, the reply Packet and its RespEnvelope), and the
// deployment's setup spread over the run. RKV's replication round
// allocates one payload per PUT, the leader's accept, which the
// followers keep as views and the learn resends. RKV was 7.75 while the
// Paxos log kept a heap record per instance, followers copied every
// command twice and answered with fresh payloads, the leader encoded its
// learn afresh, and a node-owned list of wire records ran dry on the
// leader; 12.18 while every ring crossing boxed its message and
// allocated its DMA job, flush copy and poll batch; 16.02 while the DMO
// table kept a heap record per object and the memtable's encodings
// allocated; and 32.32 with a record per message made afresh. Each
// budget is its -race floor plus less than one.
func TestAppAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		run    func() appRun
		budget float64
	}{
		{"dt-host", func() appRun { return runDT(Options{}, 10, false, 512, 8, 20*sim.Millisecond) }, 19.5},
		{"rkv-offloaded", func() appRun { return runRKV(Options{}, 10, true, 512, 8, 20*sim.Millisecond) }, 8.15},
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r := tc.run()
		runtime.ReadMemStats(&m1)
		if r.Received < 1000 {
			t.Fatalf("%s: only %d requests completed", tc.name, r.Received)
		}
		perReq := float64(m1.Mallocs-m0.Mallocs) / float64(r.Received)
		t.Logf("%s: %.2f allocations per completed request (%d requests)", tc.name, perReq, r.Received)
		if perReq > tc.budget {
			t.Errorf("%s: %.2f allocations per completed request, budget %v", tc.name, perReq, tc.budget)
		}
	}
}
