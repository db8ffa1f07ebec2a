package bench

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The faults-pdes / qos-storm-pdes experiments certify the
// window-boundary fault path: a partitioned (PDES) echo mesh takes the
// full fault-arm matrix — cluster-wide barrier arms (crash, loss, flap,
// partition cut) running as sim.Group.AtBarrier actions, partition-local
// arms (NIC-down, overload, accelerator stall) on their owning engines —
// while retrying clients ride out the windows. Every column is
// deterministic and byte-identical at any window worker count, which is
// what `make replay-smoke` replays along the PDES axis.

func init() {
	register("faults-pdes", "Every fault arm on a partitioned (PDES) echo mesh: barrier arms at window boundaries, local arms on owning engines", faultsPDES)
	register("qos-storm-pdes", "Tenant storm + fault storm on the partitioned lane mesh: admission and lanes under window-boundary faults", qosStormPDES)
}

// pdesMeshSize resolves the mesh geometry shared by the PDES fault
// experiments: node count from quick mode, 4 partitions by default.
func pdesMeshSize(opts Options) (nodes, parts int, window sim.Time) {
	nodes, window = 12, 6*sim.Millisecond
	if opts.Quick {
		nodes, window = 8, 3*sim.Millisecond
	}
	return nodes, opts.parts(4, nodes), window
}

// pdesMesh builds the partitioned echo mesh every PDES fault, migration
// and QoS experiment runs on (mesh.Build: echo actor 1+i on node i, one
// client per node on the node's partition), with a 1µs service cost.
func pdesMesh(opts Options, nodes, parts int, migratable bool) (*core.Cluster, []*core.Node, []*workload.Client) {
	cfg := opts.meshConfig(nodes, parts)
	cfg.ServiceNs, cfg.Migratable = 1000, migratable
	return mesh.Build(cfg)
}

// pdesFaultSchedule covers every arm class, scaled to the run window:
// four barrier arms (two crashes — one jittered — a loss window, a flap,
// a partition cut) and three partition-local arms (overload, accel
// stall, NIC-down). All windows close before the run ends.
func pdesFaultSchedule(window sim.Time) fault.Schedule {
	w := float64(window)
	at := func(f float64) sim.Time { return sim.Time(w * f) }
	jittered := fault.Crash("n006", at(0.70), at(0.10))
	jittered.Jitter = at(0.05)
	return fault.Schedule{Faults: []fault.Fault{
		fault.Crash("n000", at(0.15), at(0.12)),
		fault.Loss("n003", at(0.20), at(0.15), 0.5),
		fault.Flap("n004", at(0.40), at(0.15), at(0.05)),
		fault.Cut(at(0.60), at(0.12), "n000", "n001"),
		fault.Overload("n002", at(0.25), at(0.15), 4),
		fault.Stall("n005", "CRC", at(0.30), at(0.10)),
		fault.NICFail("n001", at(0.15), at(0.15)),
		jittered,
	}}
}

// ringDrive paces every client of a partitioned mesh at its ring
// neighbour (client i at node i+1) every 10µs over [0, window), with a
// retry policy that rides out fault windows. It returns the clients'
// give-up counts; gaveUp[i] is written only by client i's partition
// engine.
func ringDrive(clients []*workload.Client, window sim.Time) (gaveUp []uint64) {
	nodes := len(clients)
	gaveUp = make([]uint64, nodes)
	for i, c := range clients {
		dst := (i + 1) % nodes
		every(c.Eng(), 0, window, 10*sim.Microsecond, func(k uint64) {
			c.Send(workload.Request{
				Node: fmt.Sprintf("n%03d", dst), Dst: actor.ID(1 + dst),
				Size: 256, FlowID: uint64(i)<<32 | k,
				// MaxTimeout 0 exercises the uncapped-backoff clamp.
				Timeout: 100 * sim.Microsecond, Retries: 4, Backoff: 2,
				OnGiveUp: func() { gaveUp[i]++ },
			})
		})
	}
	return gaveUp
}

// sumOf adds up per-client counters in client order.
func sumOf(xs []uint64) (t uint64) {
	for _, x := range xs {
		t += x
	}
	return t
}

// meshRows adds the rows every partitioned-mesh experiment opens with:
// its geometry and its clients' sent/answered totals.
func meshRows(r *Result, nodes, parts int, sent, answered uint64) {
	r.Add("nodes x partitions", fmt.Sprintf("%dx%d", nodes, parts))
	r.Add("requests sent/answered", fmt.Sprintf("%d/%d", sent, answered))
}

// latencyRow adds the clients' merged latency percentiles.
func latencyRow(r *Result, p50, p99 float64) {
	r.Add("latency p50/p99 (us)", fmt.Sprintf("%.2f/%.2f", p50, p99))
}

// windowsRow adds the partitioned run's synchronization windows and
// cross-partition handoffs.
func windowsRow(r *Result, cl *core.Cluster) {
	r.Add("windows/crossed", fmt.Sprintf("%d/%d", cl.Group.Rounds(), cl.Group.Crossed()))
}

func faultsPDES(opts Options) *Result {
	nodes, parts, window := pdesMeshSize(opts)
	cl, _, clients := pdesMesh(opts, nodes, parts, false)
	in, err := fault.Install(cl, pdesFaultSchedule(window))
	if err != nil {
		panic(err)
	}
	gaveUp := ringDrive(clients, window)
	cl.RunUntil(window + sim.Millisecond) // drain room for late retries
	s := mesh.Summarize(clients)

	r := &Result{Header: []string{"metric", "value"}}
	meshRows(r, nodes, parts, s.Sent, s.Received)
	r.Add("rejected (edge-shed)", s.Rejected)
	r.Add("retried/gave-up", fmt.Sprintf("%d/%d", s.Retried, sumOf(gaveUp)))
	latencyRow(r, s.P50us, s.P99us)
	r.Add("faults injected/active-at-end", fmt.Sprintf("%d/%d", in.Injected(), in.Active()))
	r.Add("fault log lines", len(in.Log()))
	windowsRow(r, cl)
	r.Note("schedule: crash n000+n006(jittered), nic-down n001, 4x overload n002, 50%% loss n003, flap n004, CRC stall n005, cut [n000 n001]")
	r.Note("barrier arms mutate shared state between conservative windows (sim.Group.AtBarrier); local arms run on the owning partition engine")
	r.Note("accounting: rejected counts admission-denied requests (never sent); this mesh has no gates, so it is structurally 0")
	return r
}

// qosStormPDES is the qos-storm variant on the partitioned lane mesh:
// token-bucket admission and priority lanes (no SLO controller — it is
// classic-only) under a fault storm of barrier and local arms. The
// client-edge accounting rows make the Sent/Rejected contract visible.
func qosStormPDES(opts Options) *Result {
	nodes, parts, window := pdesMeshSize(opts)
	cl, nn, clients := pdesMesh(opts, nodes, parts, false)
	rt, err := qos.Install(cl, nn, &qos.Tenancy{
		Tenants: []qos.Tenant{
			{Name: "even", RatePerSec: 250_000, Burst: 64},
			{Name: "odd", RatePerSec: 100_000, Burst: 64},
		},
		Lanes: qos.LaneConfig{DataCap: 32, TelemetryCap: 8, DispatchCost: 300 * sim.Nanosecond},
	})
	if err != nil {
		panic(err)
	}
	in, err := fault.Install(cl, pdesFaultSchedule(window))
	if err != nil {
		panic(err)
	}

	for i, c := range clients {
		rt.Bind(c)
		tenant := uint16(i % 2)
		dst := (i + 1) % nodes
		// Even clients stay under budget; odd clients offer ~2.7x
		// theirs, so their gates shed at the edge while faults churn
		// the mesh underneath.
		interval := 5 * sim.Microsecond
		if tenant == 1 {
			interval = 3700 * sim.Nanosecond
		}
		every(c.Eng(), 0, window, interval, func(k uint64) {
			c.Send(workload.Request{
				Node: fmt.Sprintf("n%03d", dst), Dst: actor.ID(1 + dst),
				Size: 256, FlowID: uint64(i)<<32 | k, Tenant: tenant,
			})
		})
	}
	cl.RunUntil(window)
	s := mesh.Summarize(clients)

	r := &Result{Header: []string{"metric", "value"}}
	r.Add("nodes x partitions", fmt.Sprintf("%dx%d", nodes, parts))
	edgeRow(r, s.Sent, s.Rejected)
	r.Add("requests answered", s.Received)
	tenantTotals(rt, 2).addRows(r, "even", "odd")
	laneTotals(rt).addRows(r)
	r.Add("faults injected", in.Injected())
	r.Add("fault log lines", len(in.Log()))
	r.Add("windows", cl.Group.Rounds())
	r.Note("accounting: edge sent excludes admission-denied requests; offered = sent + rejected (workload.Client contract), and the gate ledger's rejected matches the client edge")
	r.Note("fault storm: the full faults-pdes arm matrix on the same mesh; the SLO controller stays off (classic-only)")
	return r
}
