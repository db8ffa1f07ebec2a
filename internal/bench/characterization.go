package bench

import (
	"fmt"

	"repro/internal/nicsim"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

func init() {
	register("fig2", "Bandwidth vs NIC cores, 10GbE LiquidIOII CN2350 (echo)", fig2)
	register("fig3", "Bandwidth vs NIC cores, 25GbE Stingray PS225 (echo)", fig3)
	register("fig4", "Bandwidth vs per-packet processing latency (all cores)", fig4)
	register("fig5", "Avg/p99 latency at max throughput, 6 vs 12 cores (CN2350)", fig5)
	register("fig6", "Send/recv latency: SmartNIC vs host DPDK vs host RDMA", fig6)
	register("fig7", "Per-core DMA read/write latency vs payload (CN2350)", fig7)
	register("fig8", "Per-core DMA read/write throughput vs payload (CN2350)", fig8)
	register("fig9", "RDMA one-sided read/write latency vs payload (BlueField)", fig9)
	register("fig10", "RDMA one-sided read/write throughput vs payload (BlueField)", fig10)
	register("table2", "Memory hierarchy access latency (pointer chase)", table2)
	register("table3", "Offloaded workloads and accelerators on the CN2350", table3)
}

var pktSizes = []int{64, 128, 256, 512, 1024, 1500}

// echoGbps drives an EchoServer at the link's line rate for a window
// and returns achieved goodput.
func echoGbps(seed uint64, m *spec.NICModel, cores, size int, extra sim.Time, window sim.Time) float64 {
	eng := sim.NewEngine(seed)
	e := nicsim.NewEchoServer(eng, m, cores)
	e.ExtraLatency = extra
	interval := sim.Time(1e9 / spec.LineRatePPS(m.LinkGbps, size))
	for at := sim.Time(0); at < window; at += interval {
		eng.At(at, func() { e.Receive(size) })
	}
	eng.RunUntil(window)
	return spec.GoodputGbps(float64(e.Echoed)/window.Seconds(), size)
}

func bwVsCores(opts Options, m *spec.NICModel) *Result {
	window := 4 * sim.Millisecond
	if opts.Quick {
		window = sim.Millisecond
	}
	r := &Result{header: []string{"cores"}}
	for _, s := range pktSizes {
		r.header = append(r.header, fmt.Sprintf("%dB(Gbps)", s))
	}
	// Every (cores, size) cell is an independent simulation point.
	g := grid{outer: m.Cores, inner: len(pktSizes)}
	cells := sweepMap(opts, g.size(), func(i int) float64 {
		ci, si := g.split(i)
		return echoGbps(opts.seed(), m, ci+1, pktSizes[si], 0, window)
	})
	for c := 1; c <= m.Cores; c++ {
		row := []any{c}
		for si := range pktSizes {
			row = append(row, cells[(c-1)*len(pktSizes)+si])
		}
		r.add(row...)
	}
	for _, s := range []int{256, 512, 1024, 1500} {
		if n, ok := m.CoresForLineRate(s); ok {
			r.note("%dB reaches line rate at %d cores", s, n)
		}
	}
	r.note("paper (CN2350): 10/6/4/3 cores for 256/512/1024/1500B; Stingray: 3/2/1/1; 64/128B never reach line rate")
	return r
}

func fig2(opts Options) *Result { return bwVsCores(opts, spec.LiquidIOII_CN2350()) }
func fig3(opts Options) *Result { return bwVsCores(opts, spec.Stingray_PS225()) }

func fig4(opts Options) *Result {
	window := 4 * sim.Millisecond
	if opts.Quick {
		window = sim.Millisecond
	}
	lio := spec.LiquidIOII_CN2350()
	sr := spec.Stingray_PS225()
	lats := []float64{0, 0.125, 0.25, 0.5, 1, 2, 4, 8, 16}
	r := &Result{header: []string{"proc-lat(us)", "256B-10GbE", "1024B-10GbE", "256B-25GbE", "1024B-25GbE"}}
	cols := []struct {
		m    *spec.NICModel
		size int
	}{{lio, 256}, {lio, 1024}, {sr, 256}, {sr, 1024}}
	g := grid{outer: len(lats), inner: len(cols)}
	cells := sweepMap(opts, g.size(), func(i int) float64 {
		li, ci := g.split(i)
		c := cols[ci]
		return echoGbps(opts.seed(), c.m, c.m.Cores, c.size, sim.Micros(lats[li]), window)
	})
	for li, l := range lats {
		r.add(l, cells[li*len(cols)], cells[li*len(cols)+1], cells[li*len(cols)+2], cells[li*len(cols)+3])
	}
	r.note("computing headroom (model): 10GbE 256B=%.2fus 1024B=%.2fus; 25GbE 256B=%.2fus 1024B=%.2fus",
		lio.ComputeHeadroom(256).Micros(), lio.ComputeHeadroom(1024).Micros(),
		sr.ComputeHeadroom(256).Micros(), sr.ComputeHeadroom(1024).Micros())
	r.note("paper: 2.5/9.8us (10GbE) and 0.7/2.6us (25GbE)")
	return r
}

func fig5(opts Options) *Result {
	m := spec.LiquidIOII_CN2350()
	window := 4 * sim.Millisecond
	if opts.Quick {
		window = sim.Millisecond
	}
	run := func(cores, size int) (avg, p99 float64) {
		eng := sim.NewEngine(opts.seed())
		e := nicsim.NewEchoServer(eng, m, cores)
		lat := stats.NewSample()
		e.OnEcho = func(s sim.Time) { lat.Observe(s.Micros()) }
		// Offered load: 98% of what `cores` can sustain at this size
		// (the paper's "operating at the maximum throughput").
		perPkt := m.EchoCost.Cost(size)
		interval := sim.Time(float64(perPkt) / float64(cores) / 0.98)
		line := sim.Time(1e9 / spec.LineRatePPS(m.LinkGbps, size))
		if interval < line {
			interval = line
		}
		for at := sim.Time(0); at < window; at += interval {
			eng.At(at, func() { e.Receive(size) })
		}
		eng.Run()
		return lat.Mean(), lat.Percentile(99)
	}
	r := &Result{header: []string{"size(B)", "6core-avg(us)", "12core-avg(us)", "6core-p99(us)", "12core-p99(us)"}}
	sizes := []int{64, 512, 1024, 1500}
	type latPair struct{ avg, p99 float64 }
	g := grid{outer: len(sizes), inner: 2}
	cores := [2]int{6, 12}
	cells := sweepMap(opts, g.size(), func(i int) latPair {
		si, ci := g.split(i)
		a, p := run(cores[ci], sizes[si])
		return latPair{a, p}
	})
	for si, s := range sizes {
		c6, c12 := cells[si*2], cells[si*2+1]
		r.add(s, c6.avg, c12.avg, c6.p99, c12.p99)
	}
	r.note("paper: 12-core adds only ~4.1%%/3.4%% avg/p99 over 6-core — the hardware traffic manager gives a cheap shared queue (I2)")
	return r
}

func fig6(opts Options) *Result {
	m := spec.LiquidIOII_CN2350()
	h := spec.IntelHost()
	r := &Result{header: []string{"size(B)", "NIC-send", "NIC-recv", "DPDK-send", "DPDK-recv", "RDMA-send", "RDMA-recv"}}
	sizes := []int{4, 8, 16, 32, 64, 128, 256, 512, 1024}
	var nicSum, dpdkSum, rdmaSum float64
	for _, s := range sizes {
		ns, nr := m.NICSendCost.Cost(s).Micros(), m.NICRecvCost.Cost(s).Micros()
		ds, dr := h.DPDKSendCost.Cost(s).Micros(), h.DPDKRecvCost.Cost(s).Micros()
		rs, rr := h.RDMASendCost.Cost(s).Micros(), h.RDMARecvCost.Cost(s).Micros()
		r.add(s, ns, nr, ds, dr, rs, rr)
		nicSum += ns
		dpdkSum += ds
		rdmaSum += rs
	}
	r.note("measured speedup of NIC hardware messaging (send, avg across sizes): %.1fX vs DPDK, %.1fX vs RDMA (paper: 4.6X / 4.2X)",
		dpdkSum/nicSum, rdmaSum/nicSum)
	return r
}

var dmaSizes = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}

// dmaThroughput measures per-core op rate by replaying a tight loop on
// the engine: blocking ops issue one at a time; non-blocking ops are
// bounded by the issue occupancy and the engine's transfer bandwidth.
func dmaThroughput(seed uint64, prof spec.DMAProfile, size int, blocking, write bool) float64 {
	eng := sim.NewEngine(seed)
	dma := pcie.New(eng, prof)
	window := 2 * sim.Millisecond
	done := 0
	if blocking {
		var issue func()
		issue = func() {
			if eng.Now() >= window {
				return
			}
			fn := dma.ReadBlocking
			if write {
				fn = dma.WriteBlocking
			}
			fn(size, func() { done++; issue() })
		}
		issue()
		eng.RunUntil(window)
	} else {
		// The core issues every IssueOccupancy; completions lag.
		for at := sim.Time(0); at < window; at += pcie.IssueOccupancy {
			at := at
			eng.At(at, func() {
				if write {
					dma.WriteAsync(size, func() { done++ })
				} else {
					dma.ReadAsync(size, func() { done++ })
				}
			})
		}
		eng.RunUntil(window)
	}
	return float64(done) / window.Seconds() / 1e6 // Mops
}

func fig7(opts Options) *Result {
	prof := spec.LiquidIOII_CN2350().DMA
	r := &Result{header: []string{"payload(B)", "blk-read(us)", "nonblk-read(us)", "blk-write(us)", "nonblk-write(us)"}}
	for _, s := range dmaSizes {
		r.add(s, prof.ReadLatency(s).Micros(), prof.NonBlockingIssue.Micros(),
			prof.WriteLatency(s).Micros(), prof.NonBlockingIssue.Micros())
	}
	r.note("non-blocking latency is payload-independent (command insertion only); blocking grows with payload — I6")
	return r
}

// dmaCombos are the four (blocking, write) column variants of the DMA
// throughput figures, in table column order.
var dmaCombos = [4]struct{ blocking, write bool }{
	{true, false}, {false, false}, {true, true}, {false, true},
}

func fig8(opts Options) *Result {
	prof := spec.LiquidIOII_CN2350().DMA
	r := &Result{header: []string{"payload(B)", "blk-read(Mops)", "nonblk-read(Mops)", "blk-write(Mops)", "nonblk-write(Mops)"}}
	g := grid{outer: len(dmaSizes), inner: len(dmaCombos)}
	cells := sweepMap(opts, g.size(), func(i int) float64 {
		si, ci := g.split(i)
		c := dmaCombos[ci]
		return dmaThroughput(opts.seed(), prof, dmaSizes[si], c.blocking, c.write)
	})
	for si, s := range dmaSizes {
		r.add(s, cells[si*4], cells[si*4+1], cells[si*4+2], cells[si*4+3])
	}
	// The 2KB non-blocking write is the last row's last column; the same
	// deterministic point the serial code recomputed.
	nb2k := cells[(len(dmaSizes)-1)*4+3]
	r.note("2KB non-blocking write sustains ≈%.1f GB/s per core (paper: 2.1 GB/s)", nb2k*1e6*2048/1e9)
	return r
}

func fig9(opts Options) *Result {
	bf := spec.BlueField_1M332A().DMA
	lio := spec.LiquidIOII_CN2350().DMA
	r := &Result{header: []string{"payload(B)", "rdma-read(us)", "rdma-write(us)", "dma-blk-read(us)", "dma-blk-write(us)"}}
	for _, s := range dmaSizes {
		r.add(s, bf.ReadLatency(s).Micros(), bf.WriteLatency(s).Micros(),
			lio.ReadLatency(s).Micros(), lio.WriteLatency(s).Micros())
	}
	r.note("RDMA verbs ≈2X native blocking DMA latency for small messages (paper, I6)")
	return r
}

func fig10(opts Options) *Result {
	bf := spec.BlueField_1M332A().DMA
	lio := spec.LiquidIOII_CN2350().DMA
	r := &Result{header: []string{"payload(B)", "rdma-read(Mops)", "rdma-write(Mops)", "dma-blk-read(Mops)", "dma-blk-write(Mops)"}}
	cols := [4]struct {
		prof  spec.DMAProfile
		write bool
	}{{bf, false}, {bf, true}, {lio, false}, {lio, true}}
	g := grid{outer: len(dmaSizes), inner: len(cols)}
	cells := sweepMap(opts, g.size(), func(i int) float64 {
		si, ci := g.split(i)
		return dmaThroughput(opts.seed(), cols[ci].prof, dmaSizes[si], true, cols[ci].write)
	})
	for si, s := range dmaSizes {
		r.add(s, cells[si*4], cells[si*4+1], cells[si*4+2], cells[si*4+3])
	}
	r.note("small-message RDMA throughput trails native DMA; ≥512B they converge (paper: 1/3 below 256B)")
	return r
}

func table2(opts Options) *Result {
	r := &Result{header: []string{"device", "L1(ns)", "L2(ns)", "L3(ns)", "DRAM(ns)", "line(B)"}}
	row := func(name string, m spec.MemoryProfile) {
		l3 := "N/A"
		if m.L3 != 0 {
			l3 = fmt.Sprintf("%.1f", float64(m.L3))
		}
		r.add(name, float64(m.L1), float64(m.L2), l3, float64(m.DRAM), m.CacheLineBytes)
	}
	for _, m := range spec.AllNICs() {
		row(m.Name, m.Memory)
	}
	row("Host "+spec.IntelHost().Name, spec.IntelHost().Memory)
	r.note("SmartNIC L2 ≈ host L3 latency; only the Stingray approaches host memory performance (I5)")
	return r
}

func table3(opts Options) *Result {
	m := spec.LiquidIOII_CN2350()
	r := &Result{header: []string{"workload", "DS", "exec(us,1KB)", "IPC", "MPKI", "host-exec(us)"}}
	h := spec.IntelHost()
	for _, w := range spec.Workloads() {
		r.add(w.Name, w.DataStruct, w.ExecLat1KB.Micros(), w.IPC, w.MPKI,
			h.WorkloadCost(w).Micros())
	}
	r.add("---accelerators---", "", "", "", "", "")
	accNames := []string{"CRC", "MD5", "SHA-1", "3DES", "AES", "KASUMI", "SMS4", "SNOW3G", "FAU", "ZIP", "DFA"}
	for _, name := range accNames {
		a, ok := m.Accels[name]
		if !ok {
			continue
		}
		b1, _ := a.Latency(1)
		b8, ok8 := a.LatencyByBatch[8]
		b32, ok32 := a.LatencyByBatch[32]
		s8, s32 := "N/A", "N/A"
		if ok8 {
			s8 = fmt.Sprintf("%.1f", b8.Micros())
		}
		if ok32 {
			s32 = fmt.Sprintf("%.1f", b32.Micros())
		}
		r.add(a.Name, fmt.Sprintf("bsz1=%.1f bsz8=%s bsz32=%s", b1.Micros(), s8, s32),
			"", a.IPC, a.MPKI, "")
	}
	r.note("host-exec shows I3: memory-bound tasks (high MPKI) gain little from the beefy host core")
	r.note("MD5/AES engines are 7.0X/2.5X faster than host equivalents (§2.2.3); batching amortizes invocation cost")
	return r
}
