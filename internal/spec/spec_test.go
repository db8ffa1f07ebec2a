package spec

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// TestFig2Calibration checks that the CN2350 echo cost model reproduces
// Figure 2's cores-for-line-rate: 10/6/4/3 cores for 256/512/1024/1500B,
// and that 64B/128B cannot reach line rate at all.
func TestFig2Calibration(t *testing.T) {
	m := LiquidIOII_CN2350()
	want := map[int]int{256: 10, 512: 6, 1024: 4, 1500: 3}
	for size, cores := range want {
		got, ok := m.CoresForLineRate(size)
		if !ok || got != cores {
			t.Errorf("CN2350 %dB: cores = %d (ok=%v), want %d", size, got, ok, cores)
		}
	}
	for _, size := range []int{64, 128} {
		if _, ok := m.CoresForLineRate(size); ok {
			t.Errorf("CN2350 %dB: should not reach line rate with all cores", size)
		}
	}
}

// TestFig3Calibration does the same for the Stingray: 3/2/1/1 cores for
// 256/512/1024/1500B and no line rate at 64/128B.
func TestFig3Calibration(t *testing.T) {
	m := Stingray_PS225()
	want := map[int]int{256: 3, 512: 2, 1024: 1, 1500: 1}
	for size, cores := range want {
		got, ok := m.CoresForLineRate(size)
		if !ok || got != cores {
			t.Errorf("Stingray %dB: cores = %d (ok=%v), want %d", size, got, ok, cores)
		}
	}
	for _, size := range []int{64, 128} {
		if _, ok := m.CoresForLineRate(size); ok {
			t.Errorf("Stingray %dB: should not reach line rate", size)
		}
	}
}

// TestFig4Headroom checks the computing-headroom calibration: ≈2.5µs and
// ≈9.8µs for 256B/1024B on the 10GbE CN2350, ≈0.7µs and ≈2.6µs on the
// 25GbE Stingray (§2.2.2).
func TestFig4Headroom(t *testing.T) {
	cases := []struct {
		m    *NICModel
		size int
		want float64 // µs
		tol  float64
	}{
		{LiquidIOII_CN2350(), 256, 2.5, 0.15},
		{LiquidIOII_CN2350(), 1024, 9.8, 0.3},
		{Stingray_PS225(), 256, 0.7, 0.1},
		{Stingray_PS225(), 1024, 2.6, 0.15},
	}
	for _, c := range cases {
		got := c.m.ComputeHeadroom(c.size).Micros()
		if got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("%s %dB headroom = %.2fµs, want %.1f±%.2f", c.m.Name, c.size, got, c.want, c.tol)
		}
	}
}

func TestEchoBaselineMatchesTable3(t *testing.T) {
	m := LiquidIOII_CN2350()
	echo, ok := WorkloadByName("Baseline (echo)")
	if !ok {
		t.Fatal("echo workload missing")
	}
	// The Figure 2 fit's intercept should match Table 3's echo latency
	// within 5%.
	fit := m.EchoCost.fixed.Micros()
	meas := echo.ExecLat1KB.Micros()
	if fit/meas < 0.95 || fit/meas > 1.07 {
		t.Errorf("echo intercept %.2fµs vs Table 3 %.2fµs diverge", fit, meas)
	}
}

func TestLineRateMath(t *testing.T) {
	// 10GbE at 1500B: 10e9 / (8*1520) ≈ 0.822 Mpps.
	pps := LineRatePPS(10, 1500)
	if pps < 0.82e6 || pps > 0.83e6 {
		t.Fatalf("LineRatePPS(10, 1500) = %v", pps)
	}
	// Goodput at line rate equals link speed minus overhead share.
	g := GoodputGbps(pps, 1500)
	if g < 9.8 || g > 10.0 {
		t.Fatalf("goodput = %v", g)
	}
	// Serialization delay of a 1500B frame at 10GbE ≈ 1.216µs.
	d := SerializationDelay(10, 1500)
	if d < sim.Micros(1.2) || d > sim.Micros(1.25) {
		t.Fatalf("serialization delay = %v", d)
	}
}

func TestGoodputMonotonicInPPS(t *testing.T) {
	f := func(a, b uint32) bool {
		pa, pb := float64(a%1000000), float64(b%1000000)
		if pa > pb {
			pa, pb = pb, pa
		}
		return GoodputGbps(pa, 512) <= GoodputGbps(pb, 512)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxBandwidthSaturatesAtLineRate(t *testing.T) {
	m := Stingray_PS225()
	bw := m.maxBandwidthGbps(8, 1500, 0)
	line := GoodputGbps(LineRatePPS(25, 1500), 1500)
	if bw != line {
		t.Fatalf("bandwidth %v exceeds/misses line rate %v", bw, line)
	}
	// Adding processing latency beyond headroom must lower bandwidth.
	h := m.ComputeHeadroom(1500)
	low := m.maxBandwidthGbps(8, 1500, h*4)
	if low >= bw {
		t.Fatalf("extra processing did not reduce bandwidth: %v >= %v", low, bw)
	}
}

func TestMemoryHierarchyOrdering(t *testing.T) {
	for _, m := range AllNICs() {
		mm := m.Memory
		if !(mm.L1 < mm.L2 && mm.L2 < mm.DRAM) {
			t.Errorf("%s: memory latencies not ordered: %v %v %v", m.Name, mm.L1, mm.L2, mm.DRAM)
		}
	}
	h := IntelHost().Memory
	if !(h.L1 < h.L2 && h.L2 < h.L3 && h.L3 < h.DRAM) {
		t.Error("host memory hierarchy not ordered")
	}
}

// TestTable2Shape: SmartNIC memory is generally slower than the host
// (I5), with Stingray closest to host performance.
func TestTable2Shape(t *testing.T) {
	host := IntelHost().Memory
	for _, m := range AllNICs() {
		if m.Memory.L2 < host.L2 {
			t.Errorf("%s L2 faster than host L2", m.Name)
		}
	}
	sr := Stingray_PS225().Memory
	lio := LiquidIOII_CN2350().Memory
	if sr.DRAM >= lio.DRAM {
		t.Error("Stingray DRAM should outperform LiquidIO DRAM")
	}
}

func TestAcceleratorBatchingAmortizes(t *testing.T) {
	for name, a := range liquidAccels() {
		b1, ok1 := a.Latency(1)
		if !ok1 {
			t.Fatalf("%s missing bsz=1", name)
		}
		if b32, ok := a.Latency(32); ok {
			if b32 > b1 {
				t.Errorf("%s: batch 32 latency %v worse than batch 1 %v", name, b32, b1)
			}
		}
	}
	// Fallback: batch 16 uses the batch-8 profile.
	md5 := liquidAccels()["MD5"]
	l16, ok := md5.Latency(16)
	l8, _ := md5.Latency(8)
	if !ok || l16 != l8 {
		t.Errorf("batch fallback: got %v ok=%v, want %v", l16, ok, l8)
	}
	// Zip only supports bsz=1; larger batches fall back to it.
	zip := liquidAccels()["ZIP"]
	lz, ok := zip.Latency(8)
	l1, _ := zip.Latency(1)
	if !ok || lz != l1 {
		t.Error("ZIP batch fallback broken")
	}
}

func TestHostSpeedupDependsOnMemoryBoundness(t *testing.T) {
	h := IntelHost()
	ranker, _ := WorkloadByName("Top ranker")          // IPC 1.7, MPKI 0.1: compute-bound
	classifier, _ := WorkloadByName("Flow classifier") // MPKI 15.2: memory-bound
	rSpeed := float64(ranker.ExecLat1KB) / float64(h.WorkloadCost(ranker))
	cSpeed := float64(classifier.ExecLat1KB) / float64(h.WorkloadCost(classifier))
	if rSpeed <= cSpeed {
		t.Errorf("compute-bound speedup %.2f should exceed memory-bound %.2f (I3)", rSpeed, cSpeed)
	}
	if cSpeed > 1.6 {
		t.Errorf("memory-bound host speedup %.2f implausibly high", cSpeed)
	}
}

// TestNICWorkloadCostScalesWithCores pins CyclesScale, which is how
// the runtime prices a CN2350-calibrated cost on another NIC's cores.
func TestNICWorkloadCostScalesWithCores(t *testing.T) {
	w, _ := WorkloadByName("KV cache")
	cost := func(m *NICModel) sim.Time { return sim.Time(float64(w.ExecLat1KB) * m.CyclesScale()) }
	c2350 := cost(LiquidIOII_CN2350())
	if c2350 != w.ExecLat1KB {
		t.Fatalf("reference NIC should charge the measured latency, got %v", c2350)
	}
	sr := cost(Stingray_PS225())
	if sr >= c2350 {
		t.Error("Stingray should run workloads faster than CN2350")
	}
	bf := cost(BlueField_1M332A())
	if bf <= sr {
		t.Error("0.8GHz BlueField should be slower than 3GHz Stingray")
	}
}

func TestDMAProfilesFollowPaperOrdering(t *testing.T) {
	lio := LiquidIOII_CN2350().DMA
	bf := BlueField_1M332A().DMA
	// RDMA verbs (BlueField) roughly double native blocking DMA latency
	// for small messages (I6).
	for _, size := range []int{4, 64, 256} {
		r := float64(bf.ReadLatency(size)) / float64(lio.ReadLatency(size))
		if r < 1.5 || r > 2.6 {
			t.Errorf("RDMA/DMA read latency ratio at %dB = %.2f, want ≈2", size, r)
		}
	}
	// Non-blocking issue cost is size-independent and far below blocking.
	if lio.NonBlockingIssue >= lio.ReadLatency(4) {
		t.Error("non-blocking issue should be cheaper than blocking read")
	}
	// Large blocking transfers beat small ones on bandwidth.
	small := float64(64) / lio.ReadLatency(64).Seconds()
	large := float64(2048) / lio.ReadLatency(2048).Seconds()
	if large <= small*4 {
		t.Errorf("2KB DMA bandwidth should be several times 64B: %.2e vs %.2e B/s", large, small)
	}
}

func TestWorkloadsTableComplete(t *testing.T) {
	ws := Workloads()
	if len(ws) != 11 {
		t.Fatalf("Table 3 has 11 workload rows, got %d", len(ws))
	}
	for _, w := range ws {
		if w.ExecLat1KB <= 0 || w.IPC <= 0 {
			t.Errorf("workload %q has invalid profile", w.Name)
		}
	}
}
