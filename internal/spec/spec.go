// Package spec encodes the hardware profiles of the four commodity
// SmartNICs the paper characterizes (Table 1), their memory hierarchies
// (Table 2), the offloaded-workload and accelerator microarchitectural
// profiles (Table 3), and the calibrated per-packet cost models derived
// from Figures 2–10. Every simulated component takes its parameters from
// here, so this package is the single source of truth for "what the
// hardware does".
//
// Calibration notes (derivations live next to each constant):
//
//   - The echo-server per-packet cost for the LiquidIOII CN2350 is fitted
//     from Figure 2's cores-for-line-rate data (10/6/4/3 cores for
//     256/512/1024/1500B) giving cost(s) ≈ 1.9µs + 1.166ns·s at 1.2GHz;
//     the intercept independently matches Table 3's 1.87µs echo baseline.
//   - The dispatch-only forwarding tax is fitted from Figure 4's
//     computing-headroom numbers (2.5/9.8µs at 256/1024B for 10GbE):
//     headroom = cores/lineRatePPS − tax, giving tax(s) ≈ 0.125µs+0.1ns·s
//     for the CN2350 and ≈ 0.07ns·s for the Stingray.
//   - The Stingray's packet-per-second ceiling (traffic manager / NIC
//     switch bound) is set to 18Mpps so that, as in §2.2.2, 64B and 128B
//     traffic cannot reach 25GbE line rate even with all 8 cores while
//     256B traffic needs exactly 3 cores.
package spec

import "repro/internal/sim"

// wireOverheadBytes is the per-frame Ethernet overhead on the wire that
// does not appear in the quoted packet size: 8B preamble + 12B IFG.
const wireOverheadBytes = 20

// MemoryProfile holds load-to-use latencies for each level of a memory
// hierarchy (Table 2). Levels that do not exist are zero.
type MemoryProfile struct {
	L1   sim.Time
	L2   sim.Time
	L3   sim.Time // only the host has an L3
	DRAM sim.Time
	// CacheLineBytes is the line size (128B on LiquidIOII, 64B elsewhere).
	CacheLineBytes int
	// lastLevelBytes is the capacity of the last cache level before
	// DRAM (L2 on the NICs, L3 on the host); it gates the stateful-
	// offloading working-set effect of I5.
	lastLevelBytes int
}

// AccessCost estimates the cost of n dependent random accesses over a
// working set of ws bytes: accesses hit the last-level cache while the
// working set fits, DRAM beyond (the pointer-chasing experiment behind
// Table 2, and implication I5).
func (m MemoryProfile) AccessCost(ws, n int) sim.Time {
	per := m.L2
	if m.L3 != 0 {
		per = m.L3
	}
	if m.lastLevelBytes > 0 && ws > m.lastLevelBytes {
		per = m.DRAM
	}
	return sim.Time(n) * per
}

// LinearCost is a fixed+per-byte cost model: Cost(s) = Fixed + PerByte·s.
type LinearCost struct {
	fixed   sim.Time
	perByte float64 // nanoseconds per byte
}

// Cost evaluates the model for a payload of the given size.
func (c LinearCost) Cost(bytes int) sim.Time {
	return c.fixed + sim.Time(c.perByte*float64(bytes))
}

// DMAProfile models a SmartNIC's PCIe DMA engine (Figures 7 and 8), or
// the RDMA-verb interface that off-path cards expose instead (Figures 9
// and 10). Blocking operations wait for the completion word; non-blocking
// ones only pay the command-insertion cost at the issuing core while the
// transfer itself occupies the engine for the transfer time.
type DMAProfile struct {
	blockingRead  LinearCost
	blockingWrite LinearCost
	// NonBlockingIssue is the core-side cost to enqueue a command.
	NonBlockingIssue sim.Time
	// engineBandwidthGBs bounds sustained transfer (PCIe Gen3 x8 shares
	// 7.87GB/s across engines; per-core observed ≈2.1GB/s write).
	engineBandwidthGBs float64
}

// ReadLatency returns the blocking read completion latency for a payload.
func (d DMAProfile) ReadLatency(bytes int) sim.Time { return d.blockingRead.Cost(bytes) }

// WriteLatency returns the blocking write completion latency for a payload.
func (d DMAProfile) WriteLatency(bytes int) sim.Time { return d.blockingWrite.Cost(bytes) }

// TransferTime returns the engine occupancy for a payload: the time the
// DMA engine itself is busy moving bytes (used for non-blocking ops and
// for engine-throughput limits).
func (d DMAProfile) TransferTime(bytes int) sim.Time {
	if d.engineBandwidthGBs <= 0 {
		return 0
	}
	return sim.Time(float64(bytes) / d.engineBandwidthGBs)
}

// AccelProfile describes a hardware accelerator unit (Table 3, right
// half): its observed IPC and MPKI on the invoking core and the
// per-request execution latency at batch sizes 1, 8, and 32 for 1KB
// requests.
type AccelProfile struct {
	Name string
	IPC  float64
	MPKI float64
	// LatencyByBatch maps batch size → per-request latency. Missing batch
	// sizes (ZIP supports only bsz=1) are absent.
	LatencyByBatch map[int]sim.Time
}

// Latency returns the per-request latency at the given batch size,
// falling back to the largest batch not exceeding it.
func (a AccelProfile) Latency(batch int) (sim.Time, bool) {
	if t, ok := a.LatencyByBatch[batch]; ok {
		return t, true
	}
	best := 0
	var bt sim.Time
	for b, t := range a.LatencyByBatch {
		if b <= batch && b > best {
			best, bt = b, t
		}
	}
	if best == 0 {
		return 0, false
	}
	return bt, true
}

// WorkloadProfile describes one of the representative in-network
// workloads of Table 3: execution latency for a 1KB request on the
// CN2350's 1.2GHz cnMIPS core, plus IPC and L2 MPKI.
type WorkloadProfile struct {
	Name       string
	DataStruct string
	ExecLat1KB sim.Time
	IPC        float64
	MPKI       float64
}

// MemBoundFraction estimates how memory-bound the workload is from its
// MPKI; it drives how much (little) the beefy host core helps (I3: low
// IPC / high MPKI tasks are ideal offload candidates).
func (w WorkloadProfile) MemBoundFraction() float64 {
	f := w.MPKI / 16.0
	if f > 1 {
		f = 1
	}
	return f
}

// NICModel is the full profile of one SmartNIC (Table 1 plus calibrated
// cost models).
type NICModel struct {
	Name    string
	Vendor  string
	isa     string // "cnMIPS" or "ARM A72"
	Cores   int
	freqGHz float64
	// LinkGbps is the per-port link speed; ports is 2 on all four cards
	// but experiments use one port.
	LinkGbps float64
	OnPath   bool // on-path (LiquidIOII) vs off-path (BlueField, Stingray)
	// FullOS reports whether the card runs Linux (BlueField, Stingray)
	// rather than lightweight firmware (LiquidIOII). Like Vendor and
	// OnPath it describes the card (Table 1); no cost model reads it.
	FullOS bool

	Memory MemoryProfile
	DMA    DMAProfile

	// EchoCost is the full per-packet cost of receiving, touching, and
	// retransmitting a packet on one NIC core (Figures 2/3 calibration).
	EchoCost LinearCost
	// FwdTax is the dispatch-only cost charged to a core per packet when
	// hardware units move the payload (Figure 4 calibration).
	FwdTax LinearCost
	// PPSCap caps aggregate packets/sec through the traffic manager or
	// NIC switch; 0 means the cores are the only bottleneck.
	PPSCap float64
	// HasTrafficManager reports hardware shared-queue support (I2); when
	// false the runtime must build a software shuffle layer (§3.2.6).
	HasTrafficManager bool
	// NICSendCost / NICRecvCost are the hardware-assisted messaging costs
	// of Figure 6 (PKI/PKO units on LiquidIOII).
	NICSendCost LinearCost
	NICRecvCost LinearCost

	// TailThreshUs / MeanThreshUs are the scheduler thresholds of
	// §3.2.3, set from the NIC's measured MTU line-rate latency (the
	// paper reports the resulting µ+3σ thresholds: 52.8µs for the
	// LiquidIOII and 44.6µs for the Stingray in §5.4).
	TailThreshUs float64
	MeanThreshUs float64

	Accels map[string]AccelProfile
}

// CyclesScale converts a cost calibrated on the CN2350 (1.2GHz cnMIPS,
// 2-way in-order) to this NIC's cores: frequency ratio times a
// microarchitecture factor (A72 is 3-wide out-of-order; we credit it 2x
// IPC on these workloads, consistent with the Stingray echo calibration).
func (m *NICModel) CyclesScale() float64 {
	base := 1.2 // CN2350 GHz
	arch := 1.0
	if m.isa == "ARM A72" {
		arch = 2.0
	}
	return base / (m.freqGHz * arch)
}

// HostModel describes the host server used alongside a NIC.
type HostModel struct {
	Name   string
	Cores  int
	Memory MemoryProfile
	// DPDKSendCost / DPDKRecvCost model the kernel-bypass stack of the
	// DPDK baseline (Figure 6).
	DPDKSendCost LinearCost
	DPDKRecvCost LinearCost
	// RDMASendCost / RDMARecvCost model host RDMA verbs (Figure 6).
	RDMASendCost LinearCost
	RDMARecvCost LinearCost
	// Occupancy costs: CPU time a host core spends per packet on each
	// I/O path. These are below the end-to-end latencies above because
	// batching amortizes work; they drive the core-usage accounting of
	// Figures 13 and 17.
	DPDKRxOcc sim.Time
	DPDKTxOcc sim.Time
	RingRxOcc sim.Time
	RingTxOcc sim.Time
	// CyclesScale vs the CN2350 reference core, for running offloaded
	// workload profiles on the host. The E5-2680v3 at 2.5GHz with a wide
	// OoO pipeline runs compute-bound code ≈3.5x faster than the 1.2GHz
	// cnMIPS, but memory-bound code only ≈1.3x (Table 2 DRAM 62ns vs
	// 115ns).
	ComputeSpeedup float64
	MemorySpeedup  float64
}

// WorkloadCost returns the host-core execution time for a Table 3
// workload profile, discounting by how memory-bound it is (I3).
func (h *HostModel) WorkloadCost(w WorkloadProfile) sim.Time {
	mem := w.MemBoundFraction()
	speedup := h.ComputeSpeedup*(1-mem) + h.MemorySpeedup*mem
	return sim.Time(float64(w.ExecLat1KB) / speedup)
}

// LineRatePPS returns the packets/sec a link sustains at a frame size.
func LineRatePPS(linkGbps float64, frameBytes int) float64 {
	bitsPerFrame := float64(frameBytes+wireOverheadBytes) * 8
	return linkGbps * 1e9 / bitsPerFrame
}

// GoodputGbps converts a packet rate back to bandwidth at a frame size
// (counting the frame, not wire overhead, as the paper's figures do).
func GoodputGbps(pps float64, frameBytes int) float64 {
	return pps * float64(frameBytes) * 8 / 1e9
}

// SerializationDelay is the wire time of one frame at a link speed.
func SerializationDelay(linkGbps float64, frameBytes int) sim.Time {
	bits := float64(frameBytes+wireOverheadBytes) * 8
	return sim.Time(bits / linkGbps) // ns = bits / (Gbps) since Gbps = bits/ns
}

// CoresForLineRate returns the number of NIC cores an echo server needs
// to sustain line rate at a frame size, or (0, false) if all cores are
// insufficient.
func (m *NICModel) CoresForLineRate(frameBytes int) (int, bool) {
	need := LineRatePPS(m.LinkGbps, frameBytes)
	if m.PPSCap > 0 && m.PPSCap < need {
		return 0, false
	}
	perCore := 1e9 / float64(m.EchoCost.Cost(frameBytes))
	for n := 1; n <= m.Cores; n++ {
		if float64(n)*perCore >= need {
			return n, true
		}
	}
	return 0, false
}

// maxBandwidthGbps returns achievable bandwidth with n cores at a frame
// size given an extra per-packet processing latency on each core.
func (m *NICModel) maxBandwidthGbps(n, frameBytes int, extra sim.Time) float64 {
	perPkt := m.EchoCost.Cost(frameBytes) + extra
	pps := float64(n) / perPkt.Seconds()
	if m.PPSCap > 0 && pps > m.PPSCap {
		pps = m.PPSCap
	}
	line := LineRatePPS(m.LinkGbps, frameBytes)
	if pps > line {
		pps = line
	}
	return GoodputGbps(pps, frameBytes)
}

// ComputeHeadroom returns the maximum tolerated per-packet processing
// latency that still sustains line rate with all cores (Figure 4's
// "computing headroom"), or 0 if line rate is unreachable even with no
// extra work. Headroom is measured against the dispatch-only forwarding
// tax, since offloaded actors piggyback on hardware packet movement.
func (m *NICModel) ComputeHeadroom(frameBytes int) sim.Time {
	line := LineRatePPS(m.LinkGbps, frameBytes)
	if m.PPSCap > 0 && m.PPSCap < line {
		return 0
	}
	budget := sim.Time(float64(m.Cores) * 1e9 / line)
	tax := m.FwdTax.Cost(frameBytes)
	if budget <= tax {
		return 0
	}
	return budget - tax
}
