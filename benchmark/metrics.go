package main

// metricDef declares one metric: its name, unit, which direction is
// better, and how it is judged. BENCHMARK.json carries the same table
// for the driver; main_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the baseline's median by which the metric may
	// worsen before it is a regression. Per-layer metrics have none (0).
	bound float64
	// driver, when set, is the bound BENCHMARK.json declares instead: the
	// driver compares separate processes run minutes apart on other seeds,
	// and the box's memory speed drifts further over minutes than between
	// the interleaved repetitions of two ledgers (see README).
	driver float64
	// wall marks a metric computed from a repetition's wall clock. The
	// repetitions of a run execute exactly the same events, so they differ
	// only by what the box did to them, and that is mostly one-sided: a
	// -workload run reports their favourable quartile, which moves half as
	// much between runs as their median does (see README).
	wall bool
	// sim marks simulated time and deterministic counts: a pure function
	// of (workload, seed, window), so -compare demands equality. Every
	// other metric is host time: what the simulator costs on this box.
	sim bool
	// floor is an absolute difference below which a host-time metric is
	// never a regression, whatever the ratio (set-up times of a
	// millisecond double on scheduler noise alone).
	floor float64
	// ledgerOnly metrics are reported by the full ledger and -compare but
	// not by the driver contract (see README: sim_p50_us).
	ledgerOnly bool
}

// driverBound is the bound BENCHMARK.json carries for the metric.
func (d metricDef) driverBound() float64 {
	if d.driver != 0 {
		return d.driver
	}
	return d.bound
}

// contractValue picks the one number a -workload run reports from the
// metric's distribution over the run's repetitions.
func (d metricDef) contractValue(x dist) float64 {
	switch {
	case !d.wall:
		return x.Median
	case d.better == "higher":
		return x.Q3
	default:
		return x.Q1
	}
}

func (d metricDef) time() string {
	if d.sim {
		return "sim"
	}
	return "host"
}

// End-to-end metrics, per workload. Simulated metrics are frozen for a
// given seed; their bound here is only the tolerance the driver needs
// because it compares medians over *different* seeds — it is set from the
// measured cross-seed spread, and -compare (same seed) ignores it.
var e2eDefs = []metricDef{
	{name: "events_per_sec", unit: "1/s", better: "higher", bound: 0.12, driver: 0.25, wall: true},
	{name: "host_ns_per_op", unit: "ns", better: "lower", bound: 0.12, driver: 0.25, wall: true},
	{name: "allocs_per_event", unit: "count", better: "lower", bound: 0.03},
	{name: "bytes_per_event", unit: "B", better: "lower", bound: 0.02},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.16},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.05},
	{name: "sim_tput_kops", unit: "kops/s", better: "higher", bound: 0.12, sim: true},
	{name: "sim_mean_us", unit: "us", better: "lower", bound: 0.12, sim: true},
	{name: "sim_p50_us", unit: "us", better: "lower", sim: true, ledgerOnly: true},
	{name: "sim_p99_us", unit: "us", better: "lower", bound: 0.25, sim: true},
	{name: "sim_p999_us", unit: "us", better: "lower", bound: 0.25, sim: true},
}

// Per-workload layer metrics from the traced pass. Counts are
// deterministic; *_us are simulated time summed from the program's spans.
var tracedDefs = []metricDef{
	{name: "sim.events", unit: "count", better: "lower", sim: true},
	{name: "sim.events_per_op", unit: "count", better: "lower", sim: true},
	{name: "netsim.pkts", unit: "count", better: "lower", sim: true},
	{name: "netsim.pkts_per_op", unit: "count", better: "lower", sim: true},
	{name: "netsim.drops", unit: "count", better: "lower", sim: true},
	{name: "netsim.busy_us", unit: "us", better: "lower", sim: true},
	{name: "nicsim.gate.admits", unit: "count", better: "lower", sim: true},
	{name: "nicsim.gate.busy_us", unit: "us", better: "lower", sim: true},
	{name: "sched.execs", unit: "count", better: "lower", sim: true},
	{name: "sched.busy_us", unit: "us", better: "lower", sim: true},
	{name: "sched.wait_us", unit: "us", better: "lower", sim: true},
	{name: "sched.forwarded", unit: "count", better: "lower", sim: true},
	{name: "sched.downgrades", unit: "count", better: "lower", sim: true},
	{name: "sched.drr_execs", unit: "count", better: "lower", sim: true},
	{name: "pcie.dma_ops", unit: "count", better: "lower", sim: true},
	{name: "pcie.bytes", unit: "B", better: "lower", sim: true},
	{name: "pcie.busy_us", unit: "us", better: "lower", sim: true},
	{name: "msgring.to_host_msgs", unit: "count", better: "lower", sim: true},
	{name: "msgring.to_nic_msgs", unit: "count", better: "lower", sim: true},
	{name: "msgring.credit_msgs", unit: "count", better: "lower", sim: true},
	{name: "hostsim.execs", unit: "count", better: "lower", sim: true},
	{name: "hostsim.busy_us", unit: "us", better: "lower", sim: true},
	{name: "dmo.objects", unit: "count", better: "lower", sim: true},
	{name: "dmo.bytes_nic", unit: "B", better: "lower", sim: true},
	{name: "dmo.bytes_host", unit: "B", better: "lower", sim: true},
	{name: "dmo.reads", unit: "count", better: "lower", sim: true},
	{name: "dmo.writes", unit: "count", better: "lower", sim: true},
	{name: "dmo.allocs", unit: "count", better: "lower", sim: true},
	{name: "pdes.rounds", unit: "count", better: "lower", sim: true},
	{name: "pdes.handoffs", unit: "count", better: "lower", sim: true},
	{name: "pdes.events_per_round", unit: "count", better: "higher", sim: true},
	{name: "obs.spans", unit: "count", better: "lower", sim: true},
	{name: "obs.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "invariant.violations", unit: "count", better: "lower", sim: true},
}

// The cost model, per workload: host time.
var shareDefs = []metricDef{
	{name: "share.netsim", unit: "ratio", better: "lower"},
	{name: "share.nicsim", unit: "ratio", better: "lower"},
	{name: "share.sched", unit: "ratio", better: "lower"},
	{name: "share.msgring_pcie", unit: "ratio", better: "lower"},
	{name: "share.hostsim", unit: "ratio", better: "lower"},
	{name: "share.dmo", unit: "ratio", better: "lower"},
	{name: "share.pdes", unit: "ratio", better: "lower"},
	{name: "share.unattributed", unit: "ratio", better: "lower"},
}

// driverDefs lists the layer drivers' metrics: host time, workload-
// independent. Drivers that read an engine also report events per op.
func driverDefs() []metricDef {
	var defs []metricDef
	for _, d := range drivers {
		defs = append(defs,
			metricDef{name: d.name + ".ns_per_op", unit: "ns", better: "lower"},
			metricDef{name: d.name + ".allocs_per_op", unit: "count", better: "lower"})
		if d.eventsPerOp {
			defs = append(defs, metricDef{name: d.name + ".events_per_op", unit: "count", better: "lower", sim: true})
		}
	}
	return defs
}

// workloadLayerDefs lists the per-layer metrics that belong to one
// workload: the traced pass's and the cost model's.
func workloadLayerDefs() []metricDef {
	return append(append([]metricDef(nil), tracedDefs...), shareDefs...)
}

// perLayerDefs is every per-layer metric a -trace 1 run reports, in
// print order.
func perLayerDefs() []metricDef {
	return append(driverDefs(), workloadLayerDefs()...)
}
