package mesh

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/invariant"
)

// checkedRun runs cfg with one invariant checker per partition attached
// through Observe. It returns the stats, the per-partition fingerprints
// concatenated in partition order, and how many ledgers reported
// violations.
func checkedRun(cfg Config) (Stats, string, int) {
	var chks []*invariant.Checker
	cfg.Observe = func(c *core.Cluster) { chks = c.AttachCheckers() }
	s := Run(cfg)
	var fp string
	bad := 0
	for _, chk := range chks {
		chk.Finish()
		if chk.Err() != nil {
			bad++
		}
		fp += chk.Fingerprint()
	}
	return s, fp, bad
}

// TestMeshParallelMatchesSerialMerge is the end-to-end determinism
// property of the PDES engine: a partitioned mesh run in parallel must
// be indistinguishable — ops, latency percentiles, event counts, and
// invariant fingerprints — from the same partitioned mesh executed one
// window at a time on a single goroutine.
func TestMeshParallelMatchesSerialMerge(t *testing.T) {
	base := Config{Nodes: 12, Partitions: 4, Seed: 7}
	for _, seed := range []uint64{7, 1234} {
		cfg := base
		cfg.Seed = seed
		cfg.Workers = 1
		serial, serialFP, bad := checkedRun(cfg)
		cfg.Workers = 4
		parallel, parallelFP, _ := checkedRun(cfg)

		// Wall varies run to run and Workers is the knob under test;
		// every other field must match bit for bit.
		serial.Wall, parallel.Wall = 0, 0
		serial.Workers, parallel.Workers = 0, 0
		if serial != parallel || serialFP != parallelFP {
			t.Fatalf("seed %d: parallel diverged from serial merge:\n  serial:   %+v\n  parallel: %+v",
				seed, serial, parallel)
		}
		if serial.Ops == 0 || serial.Crossed == 0 {
			t.Fatalf("seed %d: degenerate run: %+v", seed, serial)
		}
		if bad != 0 {
			t.Fatalf("seed %d: %d ledgers reported violations", seed, bad)
		}
	}
}

// TestMeshSinglePartitionRuns: Partitions=1 (the classic engine) also
// works and produces traffic — the degenerate case every classic
// experiment relies on under -pdes.
func TestMeshSinglePartitionRuns(t *testing.T) {
	s, _, bad := checkedRun(Config{Nodes: 4, Partitions: 1, Seed: 3})
	if s.Ops == 0 || bad != 0 {
		t.Fatalf("classic mesh degenerate: %+v", s)
	}
	if s.Rounds != 0 || s.Crossed != 0 {
		t.Fatalf("classic mesh should not report PDES sync state: %+v", s)
	}
}

// TestMeshZipfSkew: the hot server must see disproportionate traffic —
// the workload shape the PDES scheduler has to survive.
func TestMeshZipfSkew(t *testing.T) {
	s := Run(Config{Nodes: 8, Partitions: 2, Seed: 1})
	if s.Sent < s.Ops {
		t.Fatalf("received %d more than sent %d", s.Ops, s.Sent)
	}
	if s.P99us < s.P50us || s.P50us <= 0 {
		t.Fatalf("latency percentiles degenerate: p50=%v p99=%v", s.P50us, s.P99us)
	}
}

// TestMeshAllocBudget pins what one completed request costs the host in
// heap allocations, counted exactly (MemStats.Mallocs around RunUntil,
// no wall clock) on a 64-node, 2 ms mesh: every record the runtime makes
// per message is recycled and the network carries both packets in its
// flights, so what is left is the two allocations the reply contract
// pins (DESIGN.md §4) plus the run's warm-up: 2.11 were measured. It
// also pins the bytes those allocations take (MemStats.TotalAlloc):
// 194 B per request were measured with the boxed request in the 80-B
// size class and the reply's envelope in the 96-B class, and the budget
// adds 8 B of slack, half of what one size class more on either costs. The
// partitioned run shares the classic budget at any worker count: its
// rounds, inbox batches and window workers allocate nothing per round
// (DESIGN.md §9), so all that separates 8 partitions from 1 is the
// different traffic. The diet is pure host cost, so the same runs must
// still reproduce the fingerprints recorded before it.
func TestMeshAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		parts       int
		budget      float64 // allocations per completed request
		bytes       float64 // bytes allocated per completed request
		ops, events uint64
		fingerprint string // sha256 of the concatenated checker fingerprints
		countAt     []int  // worker counts whose allocations are counted
		workers     []int  // worker counts whose fingerprints are checked
	}{
		{parts: 1, budget: 3, bytes: 202, ops: 44034, events: 485048, countAt: []int{1}, workers: []int{1},
			fingerprint: "fb597bba29ed4603be55faac5617ff3b7accc390320686b79537d01dcdbbfd7e"},
		{parts: 8, budget: 3, bytes: 202, ops: 44168, events: 486569, countAt: []int{1, 2}, workers: []int{1, 2, 4},
			fingerprint: "ad35fea62562b8c74d8dbcf91837d36aca9acc5b83dd5690b518fd1077f51919"},
	} {
		cfg := Config{Nodes: 64, Partitions: tc.parts, Seed: 1}
		for _, w := range tc.countAt {
			cfg.Workers = w
			cfg.defaults()
			cl, clients := arm(cfg)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			cl.RunUntil(cfg.Window)
			runtime.ReadMemStats(&m1)
			var ops uint64
			for _, c := range clients {
				ops += c.Received
			}
			if ops != tc.ops {
				t.Fatalf("%d partitions, %d workers: %d requests completed, want %d", tc.parts, w, ops, tc.ops)
			}
			perReq := float64(m1.Mallocs-m0.Mallocs) / float64(ops)
			bytesPerReq := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)
			t.Logf("%d partitions, %d workers: %.2f allocations, %.1f B per completed request", tc.parts, w, perReq, bytesPerReq)
			if perReq > tc.budget {
				t.Errorf("%d partitions, %d workers: %.2f allocations per completed request, budget %v",
					tc.parts, w, perReq, tc.budget)
			}
			if bytesPerReq > tc.bytes {
				t.Errorf("%d partitions, %d workers: %.1f B allocated per completed request, budget %v B",
					tc.parts, w, bytesPerReq, tc.bytes)
			}
		}

		for _, w := range tc.workers {
			cfg.Workers = w
			s, fp, bad := checkedRun(cfg)
			fp = fmt.Sprintf("%x", sha256.Sum256([]byte(fp)))
			if s.Ops != tc.ops || s.Events != tc.events || bad != 0 || fp != tc.fingerprint {
				t.Errorf("%d partitions, %d workers: ops=%d events=%d violations=%d fingerprint=%s\nwant ops=%d events=%d violations=0 fingerprint=%s",
					tc.parts, w, s.Ops, s.Events, bad, fp, tc.ops, tc.events, tc.fingerprint)
			}
		}
	}
}

// TestMeshSetupAllocBudget pins what building and arming a 64-node mesh
// allocates (MemStats.Mallocs and TotalAlloc), at 1 and 8 partitions,
// after one warm build has filled the process-wide Zipf memo. Measured:
// 9 690 allocations and 1 036 384 B at 1 partition, 9 720 and 1 174 832 B
// at 8 (about 100 allocations and 13 KB more under -race). The budgets
// add under 2 % of allocations and about 6 % of bytes. The byte budget keeps
// the nodes' host↔NIC ring slots out of set-up: the mesh never pushes to
// them, and allocated up front they cost 36 KB a node, 2.4 MB in all.
func TestMeshSetupAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		parts   int
		mallocs uint64
		bytes   uint64
	}{
		{parts: 1, mallocs: 9850, bytes: 1_100_000},
		{parts: 8, mallocs: 9900, bytes: 1_240_000},
	} {
		cfg := Config{Nodes: 64, Partitions: tc.parts, Seed: 1}
		cfg.defaults()
		arm(cfg)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		arm(cfg)
		runtime.ReadMemStats(&m1)
		mallocs, bytes := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		t.Logf("%d partitions: set-up made %d allocations, %d B", tc.parts, mallocs, bytes)
		if mallocs > tc.mallocs {
			t.Errorf("%d partitions: set-up made %d allocations, budget %d", tc.parts, mallocs, tc.mallocs)
		}
		if bytes > tc.bytes {
			t.Errorf("%d partitions: set-up allocated %d B, budget %d B", tc.parts, bytes, tc.bytes)
		}
	}
}
