package bench

// scale-nodes: the experiment family the parallel (PDES) engine exists
// for. The paper's testbed tops out at 8 SmartNIC nodes; this sweep
// blows the RKV-shaped workload up to hundreds of nodes — one echo-RPC
// actor per NIC, one closed-loop client per node, Zipf-skewed
// destinations — and shards the simulation across engine partitions.
// The registered experiment reports only deterministic quantities
// (ops, percentiles, event and handoff counts), so its table is
// byte-identical at any sweep or window worker count; the wall-clock
// cost of partitioned execution is measured separately by the
// mesh_pdes vs mesh_classic workloads of benchmark/.

import (
	"repro/internal/mesh"
	"repro/internal/sim"
)

func init() {
	register("scale-nodes", "Scale-out node sweep on the partitioned engine (beyond the paper's 8-node testbed)", runScaleNodes)
}

// scaleNodeSizes picks the sweep's node counts.
func scaleNodeSizes(opts Options) []int {
	if opts.Quick {
		return []int{8, 16}
	}
	return []int{16, 64, 128, 256}
}

func scaleWindow(opts Options) sim.Time {
	if opts.Quick {
		return 300 * sim.Microsecond
	}
	return sim.Millisecond
}

func runScaleNodes(opts Options) *Result {
	r := &Result{header: []string{"nodes", "partitions", "ops", "tput_kops", "p50_us", "p99_us", "events", "crossed", "rounds"}}
	sizes := scaleNodeSizes(opts)
	runs := sweepMap(opts, len(sizes), func(i int) mesh.Stats {
		cfg := opts.meshConfig(sizes[i], opts.parts(8, sizes[i]))
		cfg.Window = scaleWindow(opts)
		return mesh.Run(cfg)
	})
	for _, s := range runs {
		r.add(s.Nodes, s.Partitions, s.Ops, s.TputKops, s.P50us, s.P99us, s.Events, s.Crossed, s.Rounds)
	}
	r.note("closed-loop echo-RPC mesh: one NIC-pinned actor + one depth-2 client per node, Zipf(0.99) destinations")
	r.note("deterministic columns only — wall-clock cost is measured by the mesh_pdes vs mesh_classic workloads of benchmark/")
	return r
}
