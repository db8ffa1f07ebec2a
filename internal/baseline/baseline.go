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
//     FCFSOnly and DRROnly scheduler configs, beside the hybrid
//     discipline every node gets by default (core.SchedConfig).
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
// given SmartNIC: offloaded elements are stationary (no migration or
// adaptive downgrade), and dispatch pays the logical-queue multiplexing
// overhead.
func FloemConfig(name string, nic *spec.NICModel) core.Config {
	scfg := FCFSOnly(nic)
	scfg.ExtraDispatch = floemMultiplexOverhead
	return core.Config{
		Name:             name,
		NIC:              nic,
		DisableMigration: true,
		SchedOverride:    &scfg,
	}
}

// FCFSOnly returns a scheduler config that never downgrades or
// migrates: pure first-come-first-served over the card's ingress.
func FCFSOnly(nic *spec.NICModel) sched.Config {
	cfg := core.SchedConfig(nic)
	cfg.TailThresh = 0
	cfg.MeanThresh = 0
	return cfg
}

// DRROnly returns a scheduler config that serves every actor through
// the DRR runnable queue: the pure processor-sharing approximation.
func DRROnly(nic *spec.NICModel) sched.Config {
	cfg := FCFSOnly(nic)
	cfg.AllDRR = true
	return cfg
}
