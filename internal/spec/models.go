package spec

import "repro/internal/sim"

// ns is a convenience constructor for sub-microsecond constants.
func ns(v float64) sim.Time { return sim.Time(v) }

// us converts microseconds to sim.Time.
func us(v float64) sim.Time { return sim.Micros(v) }

// liquidAccels is the accelerator suite of the OCTEON-based LiquidIOII
// cards, straight from Table 3 (per-request latency for 1KB requests at
// batch sizes 1/8/32).
func liquidAccels() map[string]AccelProfile {
	mk := func(name string, ipc, mpki float64, b1, b8, b32 float64) AccelProfile {
		lat := map[int]sim.Time{1: us(b1)}
		if b8 > 0 {
			lat[8] = us(b8)
		}
		if b32 > 0 {
			lat[32] = us(b32)
		}
		return AccelProfile{Name: name, IPC: ipc, MPKI: mpki, LatencyByBatch: lat}
	}
	return map[string]AccelProfile{
		"CRC":    mk("CRC", 1.2, 2.8, 2.6, 0.7, 0.3),
		"MD5":    mk("MD5", 0.7, 2.6, 5.0, 3.1, 3.0),
		"SHA-1":  mk("SHA-1", 0.9, 2.6, 3.5, 1.2, 0.9),
		"3DES":   mk("3DES", 0.8, 0.9, 3.4, 1.3, 1.1),
		"AES":    mk("AES", 1.1, 0.9, 2.7, 1.0, 0.8),
		"KASUMI": mk("KASUMI", 1.0, 0.9, 2.7, 1.1, 0.9),
		"SMS4":   mk("SMS4", 0.8, 0.9, 3.5, 1.4, 1.2),
		"SNOW3G": mk("SNOW3G", 1.4, 0.5, 2.3, 0.9, 0.8),
		"FAU":    mk("FAU", 1.4, 0.6, 1.9, 1.4, 1.0),
		"ZIP":    mk("ZIP", 1.0, 0.2, 190.9, 0, 0),
		"DFA":    mk("DFA", 1.3, 0.2, 9.2, 7.5, 7.3),
	}
}

// armAccels is the reduced accelerator suite modeled for the ARM-based
// cards (crypto offload engines exist on both; profiles are scaled from
// the LiquidIO measurements since the paper reports "similar
// characteristics" for BlueField and Stingray in §2.2.3).
func armAccels() map[string]AccelProfile {
	out := map[string]AccelProfile{}
	for name, a := range liquidAccels() {
		switch name {
		case "MD5", "SHA-1", "AES", "3DES", "CRC":
			out[name] = a
		}
	}
	return out
}

// LiquidIOII_CN2350 is the 10GbE on-path card (Table 1 row 1). The echo
// and forwarding-tax cost models are the Figure 2/4 calibrations
// documented in the package comment.
func LiquidIOII_CN2350() *NICModel {
	return &NICModel{
		Name:     "LiquidIOII CN2350",
		Vendor:   "Marvell",
		ISA:      "cnMIPS",
		Cores:    12,
		FreqGHz:  1.2,
		LinkGbps: 10,
		OnPath:   true,
		FullOS:   false,
		Memory: MemoryProfile{
			L1: ns(8.3), L2: ns(55.8), DRAM: ns(115.0),
			CacheLineBytes: 128,
			LastLevelBytes: 4 << 20,
		},
		DMA: DMAProfile{
			// Figure 7: blocking read ≈1.1µs at 4B → ≈3.6µs at 2KB;
			// blocking write ≈0.8µs → ≈2.2µs; non-blocking flat ≈0.3µs.
			BlockingRead:       LinearCost{Fixed: us(1.05), PerByte: 1.25},
			BlockingWrite:      LinearCost{Fixed: us(0.78), PerByte: 0.70},
			NonBlockingIssue:   us(0.30),
			EngineBandwidthGBs: 2.1,
		},
		EchoCost:          LinearCost{Fixed: us(1.90), PerByte: 1.16},
		FwdTax:            LinearCost{Fixed: us(0.125), PerByte: 0.10},
		HasTrafficManager: true,
		// Figure 6: hardware-assisted messaging, ≈4.6X/4.2X faster than
		// host DPDK/RDMA send averaged across 4B–1024B.
		NICSendCost:  LinearCost{Fixed: us(0.35), PerByte: 0.30},
		NICRecvCost:  LinearCost{Fixed: us(0.40), PerByte: 0.30},
		TailThreshUs: 52.8,
		MeanThreshUs: 21.0,
		Accels:       liquidAccels(),
	}
}

// LiquidIOII_CN2360 is the 25GbE on-path sibling (Table 1 row 2):
// 16 cores at 1.5GHz. Costs scale from the CN2350 by the frequency ratio.
func LiquidIOII_CN2360() *NICModel {
	m := LiquidIOII_CN2350()
	m.Name = "LiquidIOII CN2360"
	m.Cores = 16
	m.FreqGHz = 1.5
	m.LinkGbps = 25
	scale := 1.2 / 1.5
	m.EchoCost = LinearCost{Fixed: sim.Time(float64(us(1.90)) * scale), PerByte: 1.16 * scale}
	m.FwdTax = LinearCost{Fixed: sim.Time(float64(us(0.125)) * scale), PerByte: 0.10 * scale}
	m.TailThreshUs = 48.0
	m.MeanThreshUs = 19.0
	return m
}

// BlueField_1M332A is the 25GbE off-path Mellanox card (Table 1 row 3):
// 8 ARM A72 cores at a low 0.8GHz, full OS, RDMA to host.
func BlueField_1M332A() *NICModel {
	return &NICModel{
		Name:     "BlueField 1M332A",
		Vendor:   "Mellanox",
		ISA:      "ARM A72",
		Cores:    8,
		FreqGHz:  0.8,
		LinkGbps: 25,
		OnPath:   false,
		FullOS:   true,
		Memory: MemoryProfile{
			L1: ns(5.0), L2: ns(25.6), DRAM: ns(132.0),
			CacheLineBytes: 64, LastLevelBytes: 1 << 20,
		},
		DMA: DMAProfile{
			// Figures 9/10: RDMA verbs ≈2x blocking-DMA latency; small-
			// message throughput one third of native DMA.
			BlockingRead:       LinearCost{Fixed: us(2.05), PerByte: 1.45},
			BlockingWrite:      LinearCost{Fixed: us(1.60), PerByte: 0.90},
			NonBlockingIssue:   us(0.45),
			EngineBandwidthGBs: 2.0,
		},
		// Echo cost scaled from the Stingray calibration by the 3.0/0.8
		// frequency ratio (same core microarchitecture).
		EchoCost:          LinearCost{Fixed: us(0.675), PerByte: 0.30},
		FwdTax:            LinearCost{Fixed: 0, PerByte: 0.26},
		PPSCap:            18e6,
		HasTrafficManager: false,
		NICSendCost:       LinearCost{Fixed: us(0.80), PerByte: 0.35},
		NICRecvCost:       LinearCost{Fixed: us(0.85), PerByte: 0.35},
		TailThreshUs:      60.0,
		MeanThreshUs:      24.0,
		Accels:            armAccels(),
	}
}

// Stingray_PS225 is the 25GbE off-path Broadcom card (Table 1 row 4):
// 8 ARM A72 cores at 3.0GHz, full OS, RDMA to host. The echo cost is
// calibrated so Figure 3's cores-for-line-rate come out as 3/2/1/1 for
// 256/512/1024/1500B, and the 18Mpps switch ceiling keeps 64/128B traffic
// below line rate as §2.2.2 observes.
func Stingray_PS225() *NICModel {
	return &NICModel{
		Name:     "Stingray PS225",
		Vendor:   "Broadcom",
		ISA:      "ARM A72",
		Cores:    8,
		FreqGHz:  3.0,
		LinkGbps: 25,
		OnPath:   false,
		FullOS:   true,
		Memory: MemoryProfile{
			L1: ns(1.3), L2: ns(25.1), DRAM: ns(85.3),
			CacheLineBytes: 64, LastLevelBytes: 16 << 20,
		},
		DMA: DMAProfile{
			BlockingRead:       LinearCost{Fixed: us(1.95), PerByte: 1.40},
			BlockingWrite:      LinearCost{Fixed: us(1.50), PerByte: 0.85},
			NonBlockingIssue:   us(0.40),
			EngineBandwidthGBs: 2.1,
		},
		EchoCost:          LinearCost{Fixed: us(0.18), PerByte: 0.08},
		FwdTax:            LinearCost{Fixed: 0, PerByte: 0.07},
		PPSCap:            18e6,
		HasTrafficManager: false,
		NICSendCost:       LinearCost{Fixed: us(0.45), PerByte: 0.20},
		NICRecvCost:       LinearCost{Fixed: us(0.50), PerByte: 0.20},
		TailThreshUs:      44.6,
		MeanThreshUs:      18.0,
		Accels:            armAccels(),
	}
}

// AllNICs returns the four characterized models in Table 1 order.
func AllNICs() []*NICModel {
	return []*NICModel{
		LiquidIOII_CN2350(),
		LiquidIOII_CN2360(),
		BlueField_1M332A(),
		Stingray_PS225(),
	}
}

// IntelHost is the 12-core E5-2680v3 @2.5GHz server of the 10/25GbE
// LiquidIO testbeds (§2.2.1), with Table 2's host memory latencies and
// Figure 6's DPDK/RDMA host messaging costs.
func IntelHost() *HostModel {
	return &HostModel{
		Name:  "Intel E5-2680 v3",
		Cores: 12,
		Memory: MemoryProfile{
			L1: ns(1.2), L2: ns(6.0), L3: ns(22.4), DRAM: ns(62.2),
			CacheLineBytes: 64, LastLevelBytes: 30 << 20,
		},
		DPDKSendCost:   LinearCost{Fixed: us(1.80), PerByte: 0.90},
		DPDKRecvCost:   LinearCost{Fixed: us(1.90), PerByte: 0.90},
		RDMASendCost:   LinearCost{Fixed: us(1.60), PerByte: 0.80},
		RDMARecvCost:   LinearCost{Fixed: us(1.70), PerByte: 0.80},
		DPDKRxOcc:      us(0.45),
		DPDKTxOcc:      us(0.35),
		RingRxOcc:      us(0.10),
		RingTxOcc:      us(0.08),
		ComputeSpeedup: 3.5,
		MemorySpeedup:  1.3,
	}
}

// Workloads is Table 3's left half: representative in-network offloaded
// workloads with their measured execution latency (1KB requests on the
// CN2350), IPC, and L2 MPKI.
func Workloads() []WorkloadProfile {
	return []WorkloadProfile{
		{Name: "Baseline (echo)", DataStruct: "N/A", ExecLat1KB: us(1.87), IPC: 1.4, MPKI: 0.6},
		{Name: "Flow monitor", DataStruct: "2-D array", ExecLat1KB: us(3.2), IPC: 1.4, MPKI: 0.8},
		{Name: "KV cache", DataStruct: "Hashtable", ExecLat1KB: us(3.7), IPC: 1.2, MPKI: 0.9},
		{Name: "Top ranker", DataStruct: "1-D array", ExecLat1KB: us(34.0), IPC: 1.7, MPKI: 0.1},
		{Name: "Rate limiter", DataStruct: "FIFO", ExecLat1KB: us(8.2), IPC: 0.7, MPKI: 4.4},
		{Name: "Firewall", DataStruct: "TCAM", ExecLat1KB: us(3.7), IPC: 1.3, MPKI: 1.6},
		{Name: "Router", DataStruct: "Trie", ExecLat1KB: us(2.2), IPC: 1.3, MPKI: 0.6},
		{Name: "Load balancer", DataStruct: "Permut. table", ExecLat1KB: us(2.0), IPC: 1.3, MPKI: 1.3},
		{Name: "Packet scheduler", DataStruct: "BST tree", ExecLat1KB: us(12.6), IPC: 0.5, MPKI: 4.9},
		{Name: "Flow classifier", DataStruct: "2-D array", ExecLat1KB: us(71.0), IPC: 0.5, MPKI: 15.2},
		{Name: "Packet replication", DataStruct: "Linklist", ExecLat1KB: us(1.9), IPC: 1.4, MPKI: 0.6},
	}
}

// WorkloadByName looks a Table 3 workload up by name.
func WorkloadByName(name string) (WorkloadProfile, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return WorkloadProfile{}, false
}
