package bench

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/msgring"
	"repro/internal/pcie"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

func init() {
	register("ablate-ring", "Ablation: message-ring DMA batching (scatter-gather aggregation, I6)", ablateRing)
	register("ablate-queue", "Ablation: hardware shared queue vs shuffle layer vs IOKernel dispatcher (§3.2.6)", ablateQueue)
	register("ablate-accel", "Ablation: accelerator invocation batching (I4)", ablateAccel)
	register("ablate-migration", "Ablation: dynamic migration on/off under a load swing", ablateMigration)
	register("ablate-workingset", "Ablation: working-set size vs NIC/host placement (I5)", ablateWorkingSet)
}

// ablateRing quantifies why the rings batch non-blocking DMA writes
// (§3.5): NIC→host message throughput and per-message core cost at
// batch sizes 1/4/16.
func ablateRing(opts Options) *Result {
	r := &Result{header: []string{"batch", "msgs/s(M)", "core-cost/msg(ns)", "DMA-writes", "credit-syncs"}}
	const n = 20000
	batches := []int{1, 2, 4, 8, 16}
	rows := sweepMap(opts, len(batches), func(bi int) []any {
		batch := batches[bi]
		eng := sim.NewEngine(opts.seed())
		dma := pcie.New(eng, spec.LiquidIOII_CN2350().DMA)
		ch := msgring.NewChannel(eng, dma, 1024, batch)
		delivered := 0
		ch.OnHostReady = func() {
			for {
				ms, _ := ch.HostPoll(64)
				if len(ms) == 0 {
					return
				}
				delivered += len(ms)
			}
		}
		var coreCost sim.Time
		var push func(i int)
		push = func(i int) {
			if i >= n {
				ch.Flush()
				return
			}
			c, err := ch.NICPush(msgring.Message{Data: make([]byte, 64)})
			if err != nil {
				// Ring full: wait for credits.
				eng.After(sim.Microsecond, func() { push(i) })
				return
			}
			coreCost += c
			// Next push after the core-side cost elapses (a tight
			// producer loop).
			eng.After(c, func() { push(i + 1) })
		}
		push(0)
		eng.Run()
		el := eng.Now().Seconds()
		return []any{batch, float64(delivered) / el / 1e6, float64(coreCost) / float64(n),
			dma.Writes, ch.ToHost().CreditSyncs}
	})
	for _, row := range rows {
		r.add(row...)
	}
	r.note("aggregating messages into one scatter-gather PCIe write amortizes the per-transfer cost (I6)")
	return r
}

// ablateQueue compares the three §3.2.6 ingress designs on identical
// hardware and workload: the on-path hardware shared queue, the
// software shuffle layer with work stealing, and the IOKernel-style
// dedicated dispatcher core.
func ablateQueue(opts Options) *Result {
	window := 20 * sim.Millisecond
	if opts.Quick {
		window = 5 * sim.Millisecond
	}
	r := &Result{header: []string{"queue", "flows", "load", "p50(us)", "p99(us)", "served"}}
	run := func(ingress sched.Ingress, flows int, load float64) (p50, p99 float64, served uint64) {
		model := spec.LiquidIOII_CN2350()
		cfg := sched.DefaultConfig(model.Cores)
		cfg.Ingress = ingress
		cl := opts.cluster()
		n := cl.AddNode(core.Config{Name: "srv", NIC: model, SchedOverride: &cfg, DisableMigration: true})
		a := &actor.Actor{
			ID: 1,
			OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
				ctx.Reply(m)
				return 8 * sim.Microsecond
			},
		}
		n.Register(a, true, 0)
		capacity := float64(model.Cores) / 8.4e-6
		client := workload.NewClient(cl, "cli", model.LinkGbps)
		client.OpenLoop(capacity*load, window, func(i uint64) workload.Request {
			return workload.Request{Node: "srv", Dst: 1, Size: 512, FlowID: i % uint64(flows)}
		})
		cl.Eng.Run()
		return client.Lat.Percentile(50), client.Lat.Percentile(99), client.Received
	}
	type mode struct {
		name    string
		ingress sched.Ingress
	}
	type point struct {
		flows int
		load  float64
		mode  mode
	}
	var pts []point
	for _, flows := range []int{2, 64} {
		for _, load := range []float64{0.5, 0.9} {
			for _, m := range []mode{{"hardware-shared", sched.SharedQueue}, {"software-shuffle", sched.ShuffleLayer}, {"iokernel", sched.IOKernel}} {
				pts = append(pts, point{flows, load, m})
			}
		}
	}
	rows := sweepMap(opts, len(pts), func(i int) []any {
		p := pts[i]
		p50, p99, served := run(p.mode.ingress, p.flows, p.load)
		return []any{p.mode.name, p.flows, fmt.Sprintf("%.1f", p.load), p50, p99, served}
	})
	for _, row := range rows {
		r.add(row...)
	}
	r.note("work stealing repairs the shuffle layer's flow-steering imbalance (ZygOS-style); the IOKernel dispatcher loses a core, adds a routing hop, and pins each flow to one worker to keep it ordered — so few-flow workloads can use only as many workers as flows; the hardware queue needs neither (I2)")
	return r
}

// ablateAccel sweeps the accelerator batch size on the IPSec datapath:
// batching amortizes invocation cost but ties up NIC cores (I4).
func ablateAccel(opts Options) *Result {
	r := &Result{header: []string{"unit", "bsz", "per-req(us,1KB)", "throughput(Kops/unit)"}}
	m := spec.LiquidIOII_CN2350()
	for _, name := range []string{"AES", "SHA-1", "MD5", "CRC"} {
		a := m.Accels[name]
		for _, bsz := range []int{1, 8, 32} {
			lat, ok := a.Latency(bsz)
			if !ok {
				continue
			}
			r.add(name, bsz, lat.Micros(), 1e-3/lat.Seconds())
		}
	}
	r.note("batch 32 vs 1: AES %.1fX, MD5 %.1fX, CRC %.1fX per-request speedup (Table 3)",
		ratioAccel(m, "AES"), ratioAccel(m, "MD5"), ratioAccel(m, "CRC"))
	r.note("the cost: a batching core holds requests back, adding queueing for incoming traffic (§2.2.3)")
	return r
}

func ratioAccel(m *spec.NICModel, name string) float64 {
	a := m.Accels[name]
	b1, _ := a.Latency(1)
	b32, ok := a.Latency(32)
	if !ok {
		return 1
	}
	return float64(b1) / float64(b32)
}

// ablateMigration contrasts dynamic migration with static placement
// under a load swing: moderate → overload → moderate. Static NIC
// placement collapses during the burst; iPipe sheds the hot actor to
// the host and recovers.
func ablateMigration(opts Options) *Result {
	window := 30 * sim.Millisecond
	if opts.Quick {
		window = 12 * sim.Millisecond
	}
	r := &Result{header: []string{"placement", "served", "p50(us)", "p99(us)", "migrations"}}
	run := func(dynamic bool) []any {
		cl := opts.cluster()
		n := cl.AddNode(core.Config{
			Name: "srv", NIC: spec.LiquidIOII_CN2350(),
			DisableMigration: !dynamic,
		})
		// A heavy stateful actor: 60µs per request on the NIC, ~17µs on
		// the host (compute-bound).
		heavy := &actor.Actor{
			ID: 1, MemBound: 0.1,
			OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
				ctx.Reply(m)
				return 60 * sim.Microsecond
			},
		}
		n.Register(heavy, true, 0)
		client := workload.NewClient(cl, "cli", 10)
		third := window / 3
		// Moderate (fits the NIC), burst (exceeds it), moderate.
		client.OpenLoop(100000, third, func(i uint64) workload.Request {
			return workload.Request{Node: "srv", Dst: 1, Size: 512, FlowID: i}
		})
		cl.Eng.At(third, func() {
			client.OpenLoop(400000, third, func(i uint64) workload.Request {
				return workload.Request{Node: "srv", Dst: 1, Size: 512, FlowID: i}
			})
		})
		cl.Eng.At(2*third, func() {
			client.OpenLoop(100000, third, func(i uint64) workload.Request {
				return workload.Request{Node: "srv", Dst: 1, Size: 512, FlowID: i}
			})
		})
		cl.Eng.Run()
		name := "static-NIC (Floem-style)"
		migs := uint64(0)
		if dynamic {
			name = "iPipe dynamic"
			migs = n.Sched.PushMigrations + n.Sched.PullMigrations
		}
		return []any{name, client.Received, client.Lat.Percentile(50), client.Lat.Percentile(99), migs}
	}
	rows := sweepMap(opts, 2, func(i int) []any { return run(i == 1) })
	for _, row := range rows {
		r.add(row...)
	}
	r.note("the burst exceeds the NIC processor's aggregate capacity for this actor; dynamic placement sheds it to the host mid-run (§5.6's argument against static offloading)")
	return r
}

// ablateWorkingSet quantifies implication I5: once an actor's working
// set exceeds the SmartNIC's L2 (4MB on the LiquidIOII), every pointer
// chase pays NIC DRAM latency (115ns) while the host still serves much
// of it from its larger L3 — so memory-hungry actors can run *slower*
// on the NIC despite the offload saving host cycles.
func ablateWorkingSet(opts Options) *Result {
	m := spec.LiquidIOII_CN2350()
	h := spec.IntelHost()
	r := &Result{header: []string{"working-set", "accesses/req", "NIC-exec(us)", "host-exec(us)", "NIC/host"}}
	const accesses = 64
	for _, ws := range []int{256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20} {
		nic := float64(m.Memory.AccessCost(ws, accesses)) / 1e3
		host := float64(h.Memory.AccessCost(ws, accesses)) / 1e3
		r.add(byteSize(ws), accesses, nic, host, nic/host)
	}
	r.note("crossover at the NIC L2 capacity (4MB): beyond it the NIC pays DRAM on every miss (Table 2: 115ns vs host 22–62ns) — I5's rule for stateful offloading")
	return r
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	default:
		return fmt.Sprintf("%dKB", n>>10)
	}
}
