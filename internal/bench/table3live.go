package bench

import (
	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

func init() {
	register("table3-live", "Table 3 validation: measured NIC service time of live workload actors", table3Live)
}

// table3Rows are the Table 3 workloads table3-live deploys, in spec
// order without the echo baseline and the firewall (apps/nf runs the
// firewall for real).
var table3Rows = []string{
	"Flow monitor", "KV cache", "Top ranker", "Rate limiter", "Router",
	"Load balancer", "Packet scheduler", "Flow classifier", "Packet replication",
}

// profileActor is a Table 3 workload as an actor: each request is
// charged the row's 1 KB execution latency scaled by its size (at least
// a tenth of it) and answered with one byte. No client reads a result,
// so the profile is the whole workload.
func profileActor(id actor.ID, name string) *actor.Actor {
	prof, ok := spec.WorkloadByName(name)
	if !ok {
		panic("bench: no Table 3 profile for " + name)
	}
	return &actor.Actor{
		ID:       id,
		Name:     name,
		MemBound: prof.MemBoundFraction(),
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			if m.Reply != nil {
				resp := m
				resp.Data = []byte{1}
				ctx.Reply(resp)
			}
			scale := max(float64(len(m.Data))/1024.0, 0.1)
			return sim.Time(float64(prof.ExecLat1KB) * scale)
		},
	}
}

// table3Live closes the calibration loop for Table 3: each workload is
// deployed as an actor on a simulated CN2350, driven with 1KB requests,
// and its *measured* per-request service time (from the scheduler's
// ServiceStats EWMA) is compared to the Table 3 figure the cost model
// was parameterized with. Divergence would mean the runtime adds
// unaccounted charges.
func table3Live(opts Options) *Result {
	r := &Result{header: []string{"workload", "table3(us)", "measured(us)", "delta(%)"}}
	rows := sweepMap(opts, len(table3Rows), func(bi int) []any {
		name := table3Rows[bi]
		prof, _ := spec.WorkloadByName(name)
		cl := opts.cluster()
		n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350(), DisableMigration: true})
		a := profileActor(1, name)
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
		return []any{name, want, measured, delta}
	})
	for _, row := range rows {
		r.add(row...)
	}
	r.note("measured = ServiceStats EWMA through the full runtime (includes forwarding tax and reply send); small positive deltas are those runtime charges")
	return r
}
