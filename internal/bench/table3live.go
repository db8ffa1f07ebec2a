package bench

import (
	"repro/internal/core"
	"repro/internal/microbench"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

func init() {
	register("table3-live", "Table 3 validation: measured NIC service time of live workload actors", table3Live)
}

// table3Live closes the calibration loop for Table 3: each of the ten
// in-network workloads is deployed as a real actor on a simulated
// CN2350, driven with 1KB requests, and its *measured* per-request
// service time (from the scheduler's ServiceStats EWMA) is compared to
// the Table 3 figure the cost model was parameterized with. Divergence
// would mean the runtime adds unaccounted charges.
func table3Live(opts Options) *Result {
	r := &Result{Header: []string{"workload", "table3(us)", "measured(us)", "delta(%)"}}
	builders := []func() microbench.Workload{
		func() microbench.Workload { return microbench.NewCountMin(4, 4096) },
		func() microbench.Workload { return microbench.NewKVCache(4096) },
		func() microbench.Workload { return microbench.NewTopRanker(16) },
		func() microbench.Workload { return microbench.NewLeakyBucket(1e9, 1e6) },
		func() microbench.Workload { return microbench.NewLPMTrie() },
		func() microbench.Workload { return microbench.NewMaglev([]string{"a", "b", "c"}, 1021) },
		func() microbench.Workload { return microbench.NewPFabric() },
		func() microbench.Workload { return microbench.NewBayes(4, 8, 32) },
		func() microbench.Workload { return microbench.NewChainRep([]string{"h", "m", "t"}) },
	}
	rows := sweepMap(opts, len(builders), func(bi int) []any {
		w := builders[bi]()
		prof, _ := spec.WorkloadByName(w.Name())
		cl := opts.cluster()
		n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350(), DisableMigration: true})
		a := microbench.Actor(1, w)
		if err := n.Register(a, true, 0); err != nil {
			panic(err)
		}
		client := workload.NewClient(cl, "cli", 10)
		// 200 requests, spaced so queueing is ≈0 and measured service
		// is pure execution.
		const interval = 200 * sim.Microsecond
		every(cl.Eng, 0, 200*interval, interval, func(i uint64) {
			client.Send(workload.Request{
				Node: "srv", Dst: 1, Data: make([]byte, 1000),
				Size: 1024, FlowID: i,
			})
		})
		cl.Eng.Run()
		measured := a.ServiceStats.Mean()
		want := prof.ExecLat1KB.Micros()
		delta := (measured - want) / want * 100
		return []any{w.Name(), want, measured, delta}
	})
	for _, row := range rows {
		r.Add(row...)
	}
	r.Note("measured = ServiceStats EWMA through the full runtime (includes forwarding tax and reply send); small positive deltas are those runtime charges")
	return r
}
