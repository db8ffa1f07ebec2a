package nicsim

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/spec"
)

// offeredLoad drives an echo server at the line rate of the model's link
// for the given frame size over a window, returning achieved Gbps.
func achievedGbps(m *spec.NICModel, cores, size int, extra sim.Time) float64 {
	eng := sim.NewEngine(1)
	e := NewEchoServer(eng, m, cores)
	e.ExtraLatency = extra
	pps := spec.LineRatePPS(m.LinkGbps, size)
	interval := sim.Time(1e9 / pps)
	window := 5 * sim.Millisecond
	for at := sim.Time(0); at < window; at += interval {
		eng.At(at, func() { e.Receive(size) })
	}
	eng.RunUntil(window)
	return spec.GoodputGbps(float64(e.Echoed)/window.Seconds(), size)
}

// TestFig2EndToEnd replays Figure 2 through the event-driven echo
// server: the core counts at which line rate is reached must match the
// analytic calibration and the paper.
func TestFig2EndToEnd(t *testing.T) {
	m := spec.LiquidIOII_CN2350()
	line := func(size int) float64 {
		return spec.GoodputGbps(spec.LineRatePPS(10, size), size)
	}
	cases := map[int]int{256: 10, 512: 6, 1024: 4, 1500: 3}
	for size, cores := range cases {
		got := achievedGbps(m, cores, size, 0)
		if got < 0.98*line(size) {
			t.Errorf("%dB@%d cores: %.2f Gbps, want ≥ line %.2f", size, cores, got, line(size))
		}
		under := achievedGbps(m, cores-1, size, 0)
		if under >= 0.99*line(size) {
			t.Errorf("%dB@%d cores already reaches line rate %.2f", size, cores-1, under)
		}
	}
}

func TestSmallPacketsNeverReachLine(t *testing.T) {
	m := spec.LiquidIOII_CN2350()
	got := achievedGbps(m, m.Cores, 64, 0)
	if got >= 9.0 {
		t.Fatalf("64B with all cores reached %.2f Gbps", got)
	}
	if got < 2.0 {
		t.Fatalf("64B throughput %.2f Gbps implausibly low", got)
	}
}

func TestStingrayPPSCapBites(t *testing.T) {
	m := spec.Stingray_PS225()
	got := achievedGbps(m, m.Cores, 128, 0)
	line := spec.GoodputGbps(spec.LineRatePPS(25, 128), 128)
	if got >= 0.99*line {
		t.Fatalf("128B should be capped by the 18Mpps switch: %.2f vs line %.2f", got, line)
	}
	// But the cap admits ≈18Mpps ≈ 18.4Gbps of 128B goodput.
	if got < 15 {
		t.Fatalf("128B goodput %.2f Gbps far below the cap", got)
	}
}

// TestFig4ExtraLatencyDegrades: beyond the computing headroom,
// bandwidth falls off.
func TestFig4ExtraLatencyDegrades(t *testing.T) {
	m := spec.LiquidIOII_CN2350()
	base := achievedGbps(m, m.Cores, 1024, 0)
	light := achievedGbps(m, m.Cores, 1024, 2*sim.Microsecond)
	heavy := achievedGbps(m, m.Cores, 1024, 16*sim.Microsecond)
	if light < 0.95*base {
		t.Fatalf("2µs extra within headroom should keep ≈line rate: %.2f vs %.2f", light, base)
	}
	if heavy >= 0.8*base {
		t.Fatalf("16µs extra should degrade bandwidth: %.2f vs %.2f", heavy, base)
	}
}

// TestFig5SharedQueueScaling: going from 6 to 12 cores at the same
// (6-core max) load must not inflate latency — the shared queue has no
// synchronization penalty in the hardware traffic manager model.
func TestFig5SharedQueueScaling(t *testing.T) {
	m := spec.LiquidIOII_CN2350()
	run := func(cores int) float64 {
		eng := sim.NewEngine(1)
		e := NewEchoServer(eng, m, cores)
		var sum float64
		var n int
		e.OnEcho = func(s sim.Time) { sum += s.Micros(); n++ }
		// Load that exactly saturates 6 cores at 512B.
		perPkt := m.EchoCost.Cost(512)
		interval := perPkt / 6
		for at := sim.Time(0); at < 2*sim.Millisecond; at += interval {
			eng.At(at, func() { e.Receive(512) })
		}
		eng.Run()
		return sum / float64(n)
	}
	avg6, avg12 := run(6), run(12)
	if avg12 > avg6*1.10 {
		t.Fatalf("12-core avg latency %.2fµs should not exceed 6-core %.2fµs by >10%%", avg12, avg6)
	}
}

func TestTrafficGateTransparentWithoutCap(t *testing.T) {
	eng := sim.NewEngine(1)
	m := spec.LiquidIOII_CN2350() // PPSCap == 0
	g := NewTrafficGate(eng, m)
	delivered := false
	g.Admit(0, 0, func() { delivered = true })
	if !delivered {
		t.Fatal("transparent gate should deliver synchronously")
	}
	if g.Admitted != 1 {
		t.Fatalf("Admitted = %d", g.Admitted)
	}
}

func TestAccelBankCosts(t *testing.T) {
	eng := sim.NewEngine(1)
	m := spec.LiquidIOII_CN2350()
	b := NewAccelBank(eng, m)
	if _, ok := b.Cost("WARP", 1024, 1); ok {
		t.Fatal("bank contents wrong")
	}
	c1, ok := b.Cost("MD5", 1024, 1)
	if !ok || c1 != sim.Micros(5.0) {
		t.Fatalf("MD5 1KB bsz1 = %v, want 5µs (Table 3)", c1)
	}
	c32, _ := b.Cost("MD5", 1024, 32)
	if c32 >= c1 {
		t.Fatal("batching should amortize")
	}
	// Payload scaling with an invocation floor.
	cSmall, _ := b.Cost("MD5", 16, 1)
	if cSmall != sim.Time(float64(sim.Micros(5.0))*0.25) {
		t.Fatalf("small payload should hit the floor: %v", cSmall)
	}
	cBig, _ := b.Cost("MD5", 4096, 1)
	if cBig != 4*c1 {
		t.Fatalf("4KB cost %v, want 4x 1KB %v", cBig, c1)
	}
}

func TestAccelInvokeSerializes(t *testing.T) {
	eng := sim.NewEngine(1)
	b := NewAccelBank(eng, spec.LiquidIOII_CN2350())
	var t1, t2 sim.Time
	b.Invoke("AES", 1024, 1, func() { t1 = eng.Now() })
	b.Invoke("AES", 1024, 1, func() { t2 = eng.Now() })
	eng.Run()
	if t2 != 2*t1 {
		t.Fatalf("second invocation at %v, want serialized after %v", t2, t1)
	}
	if b.Invokes("AES") != 2 {
		t.Fatalf("Invokes = %d", b.Invokes("AES"))
	}
}

func TestAccelMissingUnit(t *testing.T) {
	eng := sim.NewEngine(1)
	b := NewAccelBank(eng, spec.Stingray_PS225()) // no ZIP/DFA on ARM bank
	if _, ok := b.Cost("ZIP", 1024, 1); ok {
		t.Fatal("Stingray bank should lack ZIP")
	}
	if _, ok := b.Invoke("ZIP", 1024, 1, nil); ok {
		t.Fatal("invoke on missing unit should fail")
	}
}

func TestEchoServerValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	m := spec.LiquidIOII_CN2350()
	for _, n := range []int{0, 13, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cores=%d accepted", n)
				}
			}()
			NewEchoServer(eng, m, n)
		}()
	}
}

func TestMemoryAccessCostWorkingSet(t *testing.T) {
	m := spec.LiquidIOII_CN2350().Memory
	small := m.AccessCost(1<<20, 10)  // 1MB fits 4MB L2
	large := m.AccessCost(64<<20, 10) // 64MB spills to DRAM
	if small != 10*m.L2 || large != 10*m.DRAM {
		t.Fatalf("AccessCost: %v %v", small, large)
	}
	h := spec.IntelHost().Memory
	if h.AccessCost(1<<20, 1) != h.L3 {
		t.Fatal("host should charge L3 for cached sets")
	}
}
