// Package baseline provides the comparators the paper evaluates iPipe
// against:
//
//   - the DPDK host-only baseline (§5.1) is a core.Config without a
//     NIC: the full application runs on host cores behind a
//     kernel-bypass stack;
//   - Floem-style static offloading (§5.6): computations placed on the
//     SmartNIC at configuration time and never moved, with the
//     language runtime's queue-multiplexing overhead — FloemConfig;
//   - the standalone FCFS and DRR scheduling disciplines of §5.4 —
//     FCFSOnly and DRROnly scheduler configs.
package baseline

import (
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
)

// floemMultiplexOverhead is the per-message queue-multiplexing cost of
// Floem's language runtime on NIC cores. Floem routes every element
// input through logical queues with per-packet state management; the
// paper attributes its lower per-core throughput partly to this
// multiplexing, which iPipe avoids with direct dispatch (§5.6).
const floemMultiplexOverhead = 650 * sim.Nanosecond

// FloemConfig returns a node config modeling a Floem deployment on the
// given SmartNIC: offloaded elements are stationary (no migration), and
// dispatch pays the logical-queue multiplexing overhead.
func FloemConfig(name string, nic *spec.NICModel) core.Config {
	scfg := sched.DefaultConfig(nic.Cores)
	scfg.TailThresh = 0 // no adaptive downgrade: elements are static
	scfg.MeanThresh = 0
	scfg.Shuffle = !nic.HasTrafficManager
	scfg.ExtraDispatch = floemMultiplexOverhead
	return core.Config{
		Name:             name,
		NIC:              nic,
		DisableMigration: true,
		SchedOverride:    &scfg,
	}
}

// FCFSOnly returns a scheduler config that never downgrades or
// migrates: pure first-come-first-served over the shared queue.
func FCFSOnly(nic *spec.NICModel) sched.Config {
	cfg := sched.DefaultConfig(nic.Cores)
	cfg.TailThresh = 0
	cfg.MeanThresh = 0
	cfg.Shuffle = !nic.HasTrafficManager
	return cfg
}

// DRROnly returns a scheduler config that serves every actor through
// the DRR runnable queue: the pure processor-sharing approximation.
func DRROnly(nic *spec.NICModel) sched.Config {
	cfg := sched.DefaultConfig(nic.Cores)
	cfg.TailThresh = 0
	cfg.MeanThresh = 0
	cfg.AllDRR = true
	cfg.Shuffle = !nic.HasTrafficManager
	return cfg
}

// Hybrid returns the full iPipe scheduler config for a NIC model (the
// thresholds of §3.2.3), for symmetric use beside FCFSOnly/DRROnly.
func Hybrid(nic *spec.NICModel) sched.Config {
	cfg := sched.DefaultConfig(nic.Cores)
	cfg.TailThresh = nic.TailThreshUs
	cfg.MeanThresh = nic.MeanThreshUs
	cfg.Shuffle = !nic.HasTrafficManager
	return cfg
}
