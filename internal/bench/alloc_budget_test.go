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
// client request the reply contract pins. Measured 51.63 and 7.75 (56.13
// and 8.25 under -race, where fmt's sync.Pool is off and the request
// generators' Sprintf calls allocate); 12.18 for RKV while every ring
// crossing boxed its message and allocated its DMA job, flush copy and
// poll batch, 16.02 while the DMO table kept a heap record per object
// and the memtable's encodings allocated, and 79.87 and 32.32 with a
// record per message made afresh. The RKV budget is its floor plus one;
// DT touches neither DMO nor the rings and its budget stands.
func TestAppAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		run    func() appRun
		budget float64
	}{
		{"dt-host", func() appRun { return runDT(Options{}, 10, false, 512, 8, 20*sim.Millisecond) }, 57},
		{"rkv-offloaded", func() appRun { return runRKV(Options{}, 10, true, 512, 8, 20*sim.Millisecond) }, 8.75},
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
