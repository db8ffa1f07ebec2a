package bench

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

func init() {
	register("fig16", "P99 tail latency vs load: FCFS vs DRR vs iPipe hybrid", fig16)
}

// fig16 reproduces §5.4: four NIC-resident actors serve requests whose
// execution costs follow either a low-dispersion exponential
// distribution or the high-dispersion bimodal-2 (the paper derives its
// traces from the three applications; the service means below are the
// paper's: exponential mean 32µs / 27µs and bimodal 35/60µs / 25/55µs
// for the LiquidIOII and Stingray respectively). Arrivals are Poisson;
// the client measures P99 end to end.
func fig16(opts Options) *Result {
	window := 80 * sim.Millisecond
	loads := []float64{0.1, 0.3, 0.5, 0.7, 0.8, 0.9}
	if opts.Quick {
		window = 30 * sim.Millisecond
		loads = []float64{0.3, 0.7, 0.9}
	}
	r := &Result{header: []string{"nic", "dispersion", "load", "FCFS-p99(us)", "DRR-p99(us)", "iPipe-p99(us)"}}

	type nicCase struct {
		model   *spec.NICModel
		expMean sim.Time
		b1, b2  sim.Time
	}
	cases := []nicCase{
		{spec.LiquidIOII_CN2350(), 32 * sim.Microsecond, 35 * sim.Microsecond, 60 * sim.Microsecond},
		{spec.Stingray_PS225(), 27 * sim.Microsecond, 25 * sim.Microsecond, 55 * sim.Microsecond},
	}

	// The workload generator replays application-trace-like request
	// mixes (§5.4). Low dispersion: six homogeneous actors whose costs
	// jitter around the exponential mean — downgrading cannot help, and
	// the hybrid should track FCFS. High dispersion: most requests are
	// light (b1-centred) across five actors, while one actor
	// concentrates rare, very heavy handlers (the ranker/compaction
	// class) — its share is kept below 1% of requests so the P99 tracks
	// the light mode, and its cost is scaled up from b2 so that it
	// actually blocks FCFS cores (with 12-way parallel FCFS service the
	// paper's raw 35/60µs modes cause no measurable head-of-line
	// blocking; see EXPERIMENTS.md).
	const actors = 6
	const heavyShare = 150 // heavy actor receives 1/heavyShare of traffic
	const heavyScale = 40  // heavy cost ≈ heavyScale × b2 (≈40% utilization share)
	run := func(nc nicCase, highDisp bool, cfg sched.Config, load float64) float64 {
		cl := opts.cluster()
		n := cl.AddNode(core.Config{
			Name: "srv", NIC: nc.model,
			DisableMigration: true, // isolate the NIC-side discipline
			WatchdogTimeout:  -1,   // heavy handlers are legitimate here
			SchedOverride:    &cfg,
		})
		rnd := sim.NewRand(opts.seed() * 7)
		var meanService float64
		for i := 0; i < actors; i++ {
			var dist shiftedExp
			switch {
			case highDisp && i == actors-1:
				// The heavy actor: long-tailed around heavyScale·b2.
				dist = shiftedExp{base: nc.b2 * heavyScale, jit: workload.Exponential{R: rnd, M: nc.b2 * heavyScale}}
			case highDisp:
				// Light actors: tight around b1.
				dist = shiftedExp{base: nc.b1 * 8 / 10, jit: workload.Exponential{R: rnd, M: nc.b1 * 2 / 10}}
			default:
				// Low dispersion: mild jitter around the exponential mean.
				dist = shiftedExp{base: nc.expMean / 2, jit: workload.Exponential{R: rnd, M: nc.expMean / 2}}
			}
			d := dist
			a := &actor.Actor{
				ID: actor.ID(100 + i),
				// NIC service time must equal the drawn cost, so divide
				// out the runtime's scaling to reference-core units.
				OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
					ctx.Reply(m)
					return sim.Time(float64(d.draw()) / nc.model.CyclesScale())
				},
			}
			if err := n.Register(a, true, 0); err != nil {
				panic(err)
			}
		}
		// Aggregate mean service for the capacity computation.
		if highDisp {
			light := float64(nc.b1)
			heavy := 2 * float64(nc.b2) * heavyScale
			meanService = light*(1-1/float64(heavyShare)) + heavy/float64(heavyShare)
		} else {
			meanService = float64(nc.expMean)
		}
		capacity := float64(nc.model.Cores) / (meanService / 1e9)
		client := workload.NewClient(cl, "cli", nc.model.LinkGbps)
		client.OpenLoop(capacity*load, window, func(i uint64) workload.Request {
			dst := actor.ID(100 + int(i)%(actors-1))
			if highDisp && i%heavyShare == 0 {
				dst = actor.ID(100 + actors - 1)
			}
			return workload.Request{Node: "srv", Dst: dst, Size: 512, FlowID: i}
		})
		cl.Eng.Run()
		return client.Lat.Percentile(99)
	}

	// Points: NIC × dispersion × load × discipline — every cell is one
	// independent cluster simulation.
	type point struct {
		nc       nicCase
		highDisp bool
		load     float64
		disc     int // 0 FCFS, 1 DRR, 2 hybrid
	}
	var pts []point
	for _, nc := range cases {
		for _, highDisp := range []bool{false, true} {
			for _, load := range loads {
				for disc := 0; disc < 3; disc++ {
					pts = append(pts, point{nc, highDisp, load, disc})
				}
			}
		}
	}
	p99s := sweepMap(opts, len(pts), func(i int) float64 {
		p := pts[i]
		var cfg sched.Config
		switch p.disc {
		case 0:
			cfg = baseline.FCFSOnly(p.nc.model)
		case 1:
			cfg = baseline.DRROnly(p.nc.model)
		default:
			cfg = core.SchedConfig(p.nc.model)
		}
		return run(p.nc, p.highDisp, cfg, p.load)
	})
	for i := 0; i < len(pts); i += 3 {
		p := pts[i]
		disp := "low(exp)"
		if p.highDisp {
			disp = "high(bimodal2)"
		}
		r.add(p.nc.model.Name, disp, fmt.Sprintf("%.1f", p.load), p99s[i], p99s[i+1], p99s[i+2])
	}
	r.note("paper at 0.9 load: low dispersion — hybrid ≈ FCFS, beats DRR by 9.6%%/21.7%% (LiquidIO/Stingray)")
	r.note("paper at 0.9 load: high dispersion — hybrid cuts FCFS tail by 68.7%%/61.4%% and DRR by 10.9%%/12.9%%")
	return r
}

// shiftedExp draws base + Exp(jit.M): a mildly jittered service time
// whose floor is deterministic (real handlers have a deterministic code
// path plus data-dependent tails).
type shiftedExp struct {
	base sim.Time
	jit  workload.Exponential
}

// draw returns one service time.
func (s shiftedExp) draw() sim.Time { return s.base + s.jit.Draw() }
