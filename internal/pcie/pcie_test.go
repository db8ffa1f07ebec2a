package pcie

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/spec"
)

func liquidEngine() (*sim.Engine, *Engine) {
	eng := sim.NewEngine(1)
	return eng, New(eng, spec.LiquidIOII_CN2350().DMA)
}

func TestBlockingReadLatencyUnloaded(t *testing.T) {
	eng, dma := liquidEngine()
	var done sim.Time
	want := dma.ReadBlocking(64, func() { done = eng.Now() })
	eng.Run()
	if done != want {
		t.Fatalf("completion at %v, want %v", done, want)
	}
	// Figure 7: small blocking reads land near 1µs.
	if want < sim.Micros(0.9) || want > sim.Micros(1.3) {
		t.Fatalf("64B blocking read latency %v implausible", want)
	}
}

func TestBlockingLatencyGrowsWithPayload(t *testing.T) {
	_, dma := liquidEngine()
	small := dma.prof.ReadLatency(4)
	big := dma.prof.ReadLatency(2048)
	if big <= small {
		t.Fatal("blocking latency must grow with payload")
	}
	// Figure 7: ≈3.6µs at 2KB.
	if big < sim.Micros(3.0) || big > sim.Micros(4.2) {
		t.Fatalf("2KB blocking read = %v, want ≈3.6µs", big)
	}
}

func TestNonBlockingCoreCostIsFlat(t *testing.T) {
	_, dma := liquidEngine()
	c1 := dma.WriteAsync(4, nil)
	c2 := dma.WriteAsync(2048, nil)
	if c1 != c2 || c1 != IssueOccupancy {
		t.Fatalf("async issue costs %v/%v, want flat %v", c1, c2, IssueOccupancy)
	}
}

func TestEngineContentionQueues(t *testing.T) {
	eng, dma := liquidEngine()
	var first, second sim.Time
	dma.WriteBlocking(2048, func() { first = eng.Now() })
	dma.WriteBlocking(2048, func() { second = eng.Now() })
	eng.Run()
	if second <= first {
		t.Fatal("second transfer should finish after first")
	}
	// The second waits one engine transfer time behind the first.
	gap := second - first
	want := dma.prof.TransferTime(2048)
	if gap != want {
		t.Fatalf("queueing gap %v, want %v", gap, want)
	}
}

// TestFig8ThroughputShape: non-blocking small-payload throughput is
// core-issue-bound (≈10Mops); large payloads become engine-bandwidth
// bound; blocking is latency-bound and much lower.
func TestFig8ThroughputShape(t *testing.T) {
	_, dma := liquidEngine()
	smallAsync := 1.0 / IssueOccupancy.Seconds()
	largeAsync := 1.0 / dma.prof.TransferTime(2048).Seconds()
	blocking64 := 1.0 / dma.prof.WriteLatency(64).Seconds()
	if smallAsync < 8e6 {
		t.Fatalf("small async rate %.2e, want ≈1e7", smallAsync)
	}
	if largeAsync > smallAsync/5 {
		t.Fatalf("large async should be bandwidth-bound well below small: %.2e vs %.2e", largeAsync, smallAsync)
	}
	if blocking64 > smallAsync/3 {
		t.Fatalf("blocking rate %.2e should trail async %.2e", blocking64, smallAsync)
	}
}

func TestWriteGatherAggregates(t *testing.T) {
	eng, dma := liquidEngine()
	var gathered sim.Time
	segs := []int{64, 128, 256}
	dma.WriteGather(segs, func() { gathered = eng.Now() })
	eng.Run()
	// One transfer of 448B, not three fixed costs.
	want := dma.prof.WriteLatency(448)
	if gathered != want {
		t.Fatalf("gather completion %v, want %v", gathered, want)
	}
	if dma.Writes != 1 || dma.BytesWritten != 448 {
		t.Fatalf("gather should count as one write of 448B: %d writes, %dB", dma.Writes, dma.BytesWritten)
	}
	// Aggregation beats three separate blocking writes.
	separate := dma.prof.WriteLatency(64) + dma.prof.WriteLatency(128) + dma.prof.WriteLatency(256)
	if want >= separate {
		t.Fatal("scatter-gather should beat separate transfers")
	}
}

func TestRDMALatencyDoubling(t *testing.T) {
	eng := sim.NewEngine(1)
	rdma := New(eng, spec.BlueField_1M332A().DMA) // one-sided verbs are blocking ops
	dma := New(eng, spec.LiquidIOII_CN2350().DMA)
	for _, size := range []int{4, 64, 256} {
		r := float64(rdma.prof.ReadLatency(size)) / float64(dma.prof.ReadLatency(size))
		if r < 1.5 || r > 2.6 {
			t.Fatalf("RDMA/DMA latency ratio at %dB = %.2f, want ≈2 (Fig 9)", size, r)
		}
	}
}

func TestRDMAOneSidedCompletes(t *testing.T) {
	eng := sim.NewEngine(1)
	rdma := New(eng, spec.BlueField_1M332A().DMA) // one-sided verbs are blocking ops
	var rAt, wAt sim.Time
	rdma.ReadBlocking(512, func() { rAt = eng.Now() })
	eng.Run()
	rdma.WriteBlocking(512, func() { wAt = eng.Now() })
	eng.Run()
	if rAt == 0 || wAt == 0 {
		t.Fatal("one-sided verbs did not complete")
	}
	if wAt-rAt >= rAt {
		t.Fatal("write should be cheaper than read")
	}
}

func TestCounters(t *testing.T) {
	eng, dma := liquidEngine()
	dma.ReadBlocking(100, nil)
	dma.WriteAsync(200, nil)
	eng.Run()
	if dma.Reads != 1 || dma.Writes != 1 {
		t.Fatalf("counters %d/%d", dma.Reads, dma.Writes)
	}
	if dma.BytesRead != 100 || dma.BytesWritten != 200 {
		t.Fatalf("bytes %d/%d", dma.BytesRead, dma.BytesWritten)
	}
}

// TestAsyncDMAAllocFree: once an engine has made the transfer records a
// burst needs, issuing and completing non-blocking reads and writes —
// including one issued from another's completion — allocates nothing.
func TestAsyncDMAAllocFree(t *testing.T) {
	eng, dma := liquidEngine()
	const burst = 8
	done := 0
	chained := func() { done++ }
	reissue := func() {
		done++
		dma.ReadAsync(64, chained)
	}
	round := func() {
		for i := 0; i < burst; i++ {
			dma.WriteAsync(256, reissue)
		}
		dma.ReadAsync(2048, nil)
		eng.Run()
	}
	round()
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Fatalf("a burst of %d async transfers allocates %.2f, want 0", 2*burst+1, got)
	}
	if done != 2*burst*102 {
		t.Fatalf("%d completions, want %d", done, 2*burst*102)
	}
	if n := dma.freeOps.Len(); n == 0 || n > burst+1 {
		t.Fatalf("%d transfer records pooled after bursts of %d", n, burst+1)
	}
}
