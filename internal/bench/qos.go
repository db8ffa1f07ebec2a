package bench

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/apps/rkv"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The qos-* experiment family exercises the multi-tenant QoS stack
// (internal/qos) end to end: per-tenant token-bucket admission at the
// workload edge, the strict-priority lane scheduler in front of each
// node's FCFS/DRR actor scheduler, and the SLO controller that closes
// the loop through the batching window, the §3.2.3 migration
// thresholds, and the shard router. qos-storm and qos-skew run on
// classic (single-engine) clusters — the controller requires one, and
// classic runs are trivially byte-identical at any PDES worker count;
// qos-lanes runs lanes + admission on the partitioned echo mesh, the
// genuine PDES determinism coverage for the new layer.

func init() {
	register("qos-storm", "Tenant storm under a fault storm: admission + lanes + the SLO controller protect the well-behaved tenant (RKV, classic)", qosStorm)
	register("qos-skew", "Mid-run Zipf-skew shift onto one shard: the controller escalates batch window -> thresholds -> reshard (RKV, classic)", qosSkew)
	register("qos-lanes", "Priority lanes and admission on the partitioned echo mesh (PDES determinism coverage)", qosLanes)
}

// qosTenantNames index the storm/skew tenant tables.
const (
	qosTenantProd  = 0
	qosTenantBatch = 1
	qosTenantNoisy = 2
	// qosTenantInfra is deliberately outside the tenant table: untabled
	// traffic (infrastructure telemetry) bypasses admission and is
	// bounded by lane shedding instead.
	qosTenantInfra = 3
)

// every schedules f at fixed intervals on eng over [start, end) —
// deterministic offered rates, unlike Poisson open loops.
func every(eng *sim.Engine, start, end, interval sim.Time, f func(i uint64)) {
	n := uint64((end - start) / interval)
	for i := uint64(0); i < n; i++ {
		i := i
		eng.At(start+sim.Time(i)*interval, func() { f(i) })
	}
}

// laneLedger is the lane schedulers' totals across a run's nodes.
type laneLedger struct {
	enq, del, shed [qos.NumLanes]uint64
	backpressured  uint64
}

func laneTotals(rt *qos.Runtime) (l laneLedger) {
	l.enq, l.del, l.shed, l.backpressured = rt.LaneTotals()
	return l
}

// addRows adds one enq/del/shed row per lane, then the backpressure row.
func (l laneLedger) addRows(r *Result) {
	for lane := qos.Lane(0); lane < qos.NumLanes; lane++ {
		r.Add(lane.String()+" enq/del/shed",
			fmt.Sprintf("%d/%d/%d", l.enq[lane], l.del[lane], l.shed[lane]))
	}
	r.Add("data backpressured", l.backpressured)
}

// tenantLedger is the admission gates' per-tenant totals in tenant-table
// order (the storm's three tenants at most).
type tenantLedger struct {
	offered, admitted, rejected [3]uint64
}

// tenantTotals reads the first n tenants' ledgers.
func tenantTotals(rt *qos.Runtime, n int) (l tenantLedger) {
	for t := 0; t < n; t++ {
		l.offered[t], l.admitted[t], l.rejected[t] = rt.OfferedTo(t), rt.AdmittedTo(t), rt.RejectedTo(t)
	}
	return l
}

// addRows adds one offered/admitted/rejected row per named tenant.
func (l tenantLedger) addRows(r *Result, names ...string) {
	for t, name := range names {
		r.Add(name+" offered/admitted/rejected",
			fmt.Sprintf("%d/%d/%d", l.offered[t], l.admitted[t], l.rejected[t]))
	}
}

// edgeRow adds the client-edge accounting row (workload.Client
// contract): sent excludes admission-denied requests, so offered is
// sent + rejected.
func edgeRow(r *Result, sent, rejected uint64) {
	r.Add("client edge sent/rejected/offered", fmt.Sprintf("%d/%d/%d", sent, rejected, sent+rejected))
}

// phases splits a run at t1 and t2: the returned function maps a send
// time to the latency sample of its phase.
func phases(t1, t2 sim.Time, before, between, after *stats.Sample) func(sim.Time) *stats.Sample {
	return func(t sim.Time) *stats.Sample {
		switch {
		case t < t1:
			return before
		case t < t2:
			return between
		default:
			return after
		}
	}
}

// keysOnShard returns n distinct keys the router maps to shard g.
func keysOnShard(d *deploy.RKV, g, n int) [][]byte {
	keys := make([][]byte, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := []byte(fmt.Sprintf("hot-%05d", i))
		if d.ShardFor(k) == g {
			keys = append(keys, k)
		}
	}
	return keys
}

// qosTelemetryBase is the actor ID of the per-node telemetry sink the
// storm experiment floods (900+i on kv<i>).
const qosTelemetryBase = 900

// qosRKVCluster builds the 4-node, 4-shard RKV deployment the storm and
// skew experiments share. Each node also carries a cheap NIC-side
// telemetry sink actor — monitoring streams are not KV requests.
func qosRKVCluster(opts Options, sched fault.Schedule, t *qos.Tenancy) (*core.Cluster, *deploy.RKV) {
	cl, nodes := kvNodes(opts, 4, core.Config{NIC: spec.LiquidIOII_CN2350(), LinkGbps: 10})
	for i, n := range nodes {
		sink := &actor.Actor{
			ID: actor.ID(qosTelemetryBase + i), Name: fmt.Sprintf("telemetry%d", i),
			PinNIC:    true,
			OnMessage: func(actor.Ctx, actor.Msg) sim.Time { return 200 * sim.Nanosecond },
		}
		if err := n.Register(sink, true, 1<<16); err != nil {
			panic(err)
		}
	}
	d, err := deploy.RKVSpec{
		Common: deploy.Common{
			Placement: deploy.NIC,
			Faults:    sched,
			Tenancy:   t,
		},
		Nodes: nodes, BaseID: 100, MemLimit: 8 << 20, Shards: 4, Replicas: 2,
	}.Deploy()
	if err != nil {
		panic(err)
	}
	return cl, d
}

// --- qos-storm ----------------------------------------------------------

// qosStormOutcome is one storm run's report material (tests assert on
// it directly via qosStormRun).
type qosStormOutcome struct {
	calm, storm, post *stats.Sample // prod latency per phase
	sloUs             float64
	stormStart        sim.Time
	stormEnd          sim.Time

	tenantLedger
	laneLedger

	// Client-edge accounting (workload.Client contract): sent excludes
	// admission-denied requests, which land in cliRejected instead.
	cliSent, cliRejected uint64

	ctlSent, ctlAnswered uint64
	ticks, shrinks       uint64
	tightens, reshards   uint64
	elections            uint64
}

func qosStormRun(opts Options) qosStormOutcome {
	window := 20 * sim.Millisecond
	if opts.Quick {
		window = 10 * sim.Millisecond
	}
	w := float64(window)
	at := func(f float64) sim.Time { return sim.Time(w * f) }
	stormStart, stormEnd := at(0.35), at(0.80)
	const sloUs = 250.0

	// The fault storm: the shard-3 leader crashes (forcing a
	// failover), a loss window hits kv1, and every surviving node
	// takes a 6x overload burst — the window where the controller
	// must react.
	odur := at(0.25)
	if opts.Quick {
		// The compressed window leaves less drain room before the
		// post phase; keep the saturation burst proportionally shorter.
		odur = at(0.20)
	}
	sched := fault.Schedule{Faults: []fault.Fault{
		fault.Crash("kv3", at(0.35), at(0.20)),
		fault.Loss("kv1", at(0.40), at(0.10), 0.25),
		fault.Overload("kv0", at(0.45), odur, 16),
		fault.Overload("kv1", at(0.45), odur, 16),
		fault.Overload("kv2", at(0.45), odur, 16),
	}}
	cl, d := qosRKVCluster(opts, sched, &qos.Tenancy{
		Tenants: []qos.Tenant{
			{Name: "prod", RatePerSec: 150_000, SLOp99Us: sloUs},
			{Name: "batch", RatePerSec: 60_000},
			{Name: "noisy", RatePerSec: 25_000},
		},
		Lanes:      qos.LaneConfig{DataCap: 128, TelemetryCap: 16, DispatchCost: 200 * sim.Nanosecond},
		Controller: qos.ControllerConfig{Enabled: true},
	})

	o := qosStormOutcome{
		calm: stats.NewSample(), storm: stats.NewSample(), post: stats.NewSample(),
		sloUs: sloUs, stormStart: stormStart, stormEnd: stormEnd,
	}
	phase := phases(stormStart, stormEnd, o.calm, o.storm, o.post)

	prod := workload.NewClient(cl, "prod", 10)
	batch := workload.NewClient(cl, "batch", 10)
	noisy := workload.NewClient(cl, "noisy", 10)
	infra := workload.NewClient(cl, "infra", 10)
	clients := []*workload.Client{prod, batch, noisy, infra}
	for _, c := range clients {
		d.QoS.Bind(c)
	}
	// The controller's cheapest knob: prod's train-coalescing window.
	batcher := workload.NewBatcher(prod, 0, 8)
	d.QoS.BindBatcher(batcher)

	// prod: 125K/s of 90/10 read/write spread over all shards, under
	// its 150K/s budget — the well-behaved tenant whose SLO must hold.
	every(cl.Eng, 0, window, 8*sim.Microsecond, func(i uint64) {
		key := []byte(fmt.Sprintf("p%05d", i%4096))
		data := rkv.GetReq(key)
		if i%10 == 0 {
			data = rkv.PutReq(key, make([]byte, 64))
		}
		node, leader := d.LeaderFor(key)
		sentAt := cl.Eng.Now()
		batcher.Add(workload.Request{
			Node: node, Dst: leader, Kind: rkv.KindReq,
			Data: data, Size: 512, FlowID: i,
			Tenant: qosTenantProd,
			OnResp: func(actor.Msg) {
				phase(sentAt).Observe((cl.Eng.Now() - sentAt).Seconds() * 1e6)
			},
		})
	})
	// batch: 50K/s of reads, no SLO — admission-controlled ballast.
	every(cl.Eng, 0, window, 20*sim.Microsecond, func(i uint64) {
		key := []byte(fmt.Sprintf("b%05d", i%2048))
		node, leader := d.LeaderFor(key)
		batch.Send(workload.Request{
			Node: node, Dst: leader, Kind: rkv.KindReq,
			Data: rkv.GetReq(key), Size: 512, FlowID: 1<<20 | i, Tenant: qosTenantBatch,
		})
	})
	// noisy: offered at 100K/s against a 25K/s budget — 4x its
	// admitted rate — all of it hammering shard 0's hot keys.
	hot := keysOnShard(d, 0, 64)
	every(cl.Eng, 0, window, 10*sim.Microsecond, func(i uint64) {
		key := hot[i%uint64(len(hot))]
		node, leader := d.LeaderFor(key)
		noisy.Send(workload.Request{
			Node: node, Dst: leader, Kind: rkv.KindReq,
			Data: rkv.PutReq(key, make([]byte, 64)), Size: 512,
			FlowID: 2<<20 | i, Tenant: qosTenantNoisy,
		})
	})
	// control probes: one read per 50µs rotating over the shards,
	// tagged ClassControl — admission always passes them and the lane
	// scheduler must never shed one.
	every(cl.Eng, 0, window, 50*sim.Microsecond, func(i uint64) {
		key := []byte(fmt.Sprintf("c%02d", i%64))
		node, leader := d.LeaderFor(key)
		o.ctlSent++
		prod.Send(workload.Request{
			Node: node, Dst: leader, Kind: rkv.KindReq,
			Data: rkv.GetReq(key), Size: 256, FlowID: 3<<20 | i,
			Tenant: qosTenantProd, Class: uint8(qos.ClassControl),
			OnResp: func(actor.Msg) { o.ctlAnswered++ },
		})
	})
	// telemetry flood: 64-packet bursts every 250µs from an untabled
	// infrastructure tenant into the node's telemetry sink — the lane
	// watermark sheds the excess.
	every(cl.Eng, 0, window, 250*sim.Microsecond, func(i uint64) {
		t := int(i % 4)
		for j := 0; j < 64; j++ {
			infra.Send(workload.Request{
				Node: fmt.Sprintf("kv%d", t), Dst: actor.ID(qosTelemetryBase + t),
				Size: 128, FlowID: 4<<20 | i,
				Tenant: qosTenantInfra, Class: uint8(qos.ClassTelemetry),
			})
		}
	})

	cl.Eng.Run()

	o.tenantLedger, o.laneLedger = tenantTotals(d.QoS, 3), laneTotals(d.QoS)
	edge := mesh.Summarize(clients)
	o.cliSent, o.cliRejected = edge.Sent, edge.Rejected
	ctl := d.QoS.Controller
	o.ticks, o.shrinks, o.tightens, o.reshards = ctl.Ticks, ctl.BatchShrinks, ctl.ThreshTightens, ctl.Reshards
	o.elections = d.Elections
	return o
}

func qosStorm(opts Options) *Result {
	o := qosStormRun(opts)

	r := &Result{Header: []string{"metric", "value"}}
	o.tenantLedger.addRows(r, "prod", "batch", "noisy")
	r.Add("prod p50 calm/storm/post (us)", fmt.Sprintf("%.1f/%.1f/%.1f",
		o.calm.Percentile(50), o.storm.Percentile(50), o.post.Percentile(50)))
	r.Add("prod p99 calm/storm/post (us)", fmt.Sprintf("%.1f/%.1f/%.1f",
		o.calm.Percentile(99), o.storm.Percentile(99), o.post.Percentile(99)))
	r.Add("prod SLO p99 (us)", fmt.Sprintf("%.0f", o.sloUs))
	o.laneLedger.addRows(r)
	edgeRow(r, o.cliSent, o.cliRejected)
	r.Add("control probes sent/answered", fmt.Sprintf("%d/%d", o.ctlSent, o.ctlAnswered))
	r.Add("controller ticks", o.ticks)
	r.Add("controller actions (shrink/tighten/reshard)",
		fmt.Sprintf("%d/%d/%d", o.shrinks, o.tightens, o.reshards))
	r.Add("elections", o.elections)
	r.Note("storm %.1f-%.1fms: shard-3 leader crash, 25%% loss on kv1, 16x overload on every survivor; noisy tenant offers 4x its budget at shard 0",
		o.stormStart.Seconds()*1e3, o.stormEnd.Seconds()*1e3)
	r.Note("contract: prod p99 holds its SLO outside the storm, control is never shed, telemetry sheds absorb the flood")
	r.Note("accounting: edge sent excludes admission-denied requests (Rejected, never Sent); offered = sent + rejected, matching the gates' per-tenant ledger")
	return r
}

// --- qos-skew -----------------------------------------------------------

type qosSkewOutcome struct {
	spread, hot, recovered *stats.Sample
	sloUs                  float64
	shrinks, tightens      uint64
	reshards, ticks        uint64
	rejected               uint64
	liveShards             int
}

func qosSkewRun(opts Options) qosSkewOutcome {
	window := 16 * sim.Millisecond
	if opts.Quick {
		window = 8 * sim.Millisecond
	}
	w := float64(window)
	shiftAt := sim.Time(w * 0.5)
	lateAt := sim.Time(w * 0.85)
	const sloUs = 120.0

	cl, d := qosRKVCluster(opts, fault.Schedule{}, &qos.Tenancy{
		Tenants: []qos.Tenant{
			{Name: "prod", RatePerSec: 500_000, SLOp99Us: sloUs},
		},
		Lanes: qos.LaneConfig{DispatchCost: 100 * sim.Nanosecond},
		// A snappier loop than the storm run, scaled to the window so
		// the escalation chain — batch window, migration thresholds,
		// reshard — completes inside the hot phase even in -quick runs.
		Controller: qos.ControllerConfig{
			Enabled:      true,
			Period:       window / 32,
			Cooldown:     window / 32,
			ThreshFactor: 0.1,
		},
	})

	o := qosSkewOutcome{
		spread: stats.NewSample(), hot: stats.NewSample(), recovered: stats.NewSample(),
		sloUs: sloUs,
	}
	phase := phases(shiftAt, lateAt, o.spread, o.hot, o.recovered)

	prod := workload.NewClient(cl, "prod", 10)
	d.QoS.Bind(prod)
	batcher := workload.NewBatcher(prod, 0, 8)
	d.QoS.BindBatcher(batcher)

	// Phase A: Zipf(0.85) over 16K keys — load spreads over all four
	// shards. Phase B: the skew jumps to Zipf(1.25) over a key list
	// that lives entirely on shard 0 — the mid-run hot-shard shift the
	// controller exists for. Requests route by key at send time, so
	// the controller's reshard redirects the hot range mid-run.
	zipfA := workload.NewZipf(cl.Eng.Rand(), 16384, 0.85)
	zipfB := workload.NewZipf(cl.Eng.Rand(), 512, 0.99)
	hot := keysOnShard(d, 0, 512)
	every(cl.Eng, 0, window, 2500*sim.Nanosecond, func(i uint64) {
		var key []byte
		if cl.Eng.Now() < shiftAt {
			key = []byte(fmt.Sprintf("s%05d", zipfA.Next()))
		} else {
			key = hot[zipfB.Next()]
		}
		data := rkv.GetReq(key)
		if i%5 == 0 {
			data = rkv.PutReq(key, make([]byte, 64))
		}
		node, leader := d.LeaderFor(key)
		sentAt := cl.Eng.Now()
		batcher.Add(workload.Request{
			Node: node, Dst: leader, Kind: rkv.KindReq,
			Data: data, Size: 512, FlowID: i, Tenant: qosTenantProd,
			OnResp: func(actor.Msg) {
				phase(sentAt).Observe((cl.Eng.Now() - sentAt).Seconds() * 1e6)
			},
		})
	})

	cl.Eng.Run()

	ctl := d.QoS.Controller
	o.shrinks, o.tightens, o.reshards, o.ticks = ctl.BatchShrinks, ctl.ThreshTightens, ctl.Reshards, ctl.Ticks
	o.rejected = d.QoS.RejectedTo(qosTenantProd)
	o.liveShards = d.Router.Shards()
	return o
}

func qosSkew(opts Options) *Result {
	o := qosSkewRun(opts)

	r := &Result{Header: []string{"phase", "p50(us)", "p99(us)", "samples"}}
	row := func(name string, s *stats.Sample) {
		r.Add(name, fmt.Sprintf("%.1f", s.Percentile(50)), fmt.Sprintf("%.1f", s.Percentile(99)), s.Count())
	}
	row("spread (Zipf 0.85, all shards)", o.spread)
	row("hot (Zipf 0.99, shard 0)", o.hot)
	row("recovered (post-escalation)", o.recovered)
	r.Note("SLO p99 %.0fus; controller escalation: %d batch shrinks, %d threshold tightens, %d reshard(s); %d/4 shards live at end",
		o.sloUs, o.shrinks, o.tightens, o.reshards, o.liveShards)
	r.Note("admission rejected %d prod requests at the edge while the hot shard drained", o.rejected)
	return r
}

// --- qos-lanes ----------------------------------------------------------

type qosLanesOutcome struct {
	nodes, parts int
	ops, sent    uint64
	p50, p99     float64
	laneLedger
	tenantLedger
	crossed, rounds uint64
}

func qosLanesRun(opts Options) qosLanesOutcome {
	nodes := 16
	window := sim.Millisecond
	if opts.Quick {
		nodes = 8
		window = 400 * sim.Microsecond
	}
	parts := opts.parts(4, nodes)

	cl, nn, clients := pdesMesh(opts, nodes, parts, false)

	// Lanes + admission only: the controller reads cross-node state
	// and is classic-only, so the partitioned run leaves it off — and
	// every remaining piece of QoS state (one gate per client, one
	// lane scheduler per node) lives on its owner's partition engine.
	rt, err := qos.Install(cl, nn, &qos.Tenancy{
		Tenants: []qos.Tenant{
			{Name: "even", RatePerSec: 300_000, Burst: 64},
			{Name: "odd", RatePerSec: 150_000, Burst: 64},
		},
		Lanes: qos.LaneConfig{DataCap: 32, TelemetryCap: 8, DispatchCost: 300 * sim.Nanosecond},
	})
	if err != nil {
		panic(err)
	}

	for _, c := range clients {
		rt.Bind(c)
	}
	for i := 0; i < nodes; i++ {
		i := i
		c := clients[i]
		tenant := uint16(i % 2)
		dest := func(k uint64) (string, actor.ID) {
			d := int(k) % nodes
			if d == i {
				d = (d + 1) % nodes
			}
			return fmt.Sprintf("n%03d", d), actor.ID(1 + d)
		}
		// Data plane: even clients pace at 250K/s, under their 300K/s
		// budget — the well-behaved tenant is never rejected. Odd
		// clients pace at 400K/s against a 150K/s budget, so their
		// gates reject most of the excess at the edge.
		interval := 4 * sim.Microsecond
		if tenant == 1 {
			interval = 2500 * sim.Nanosecond
		}
		every(c.Eng(), 0, window, interval, func(k uint64) {
			node, id := dest(k*7 + uint64(i))
			c.Send(workload.Request{
				Node: node, Dst: id, Size: 256,
				FlowID: uint64(i)<<32 | k, Tenant: tenant,
			})
		})
		// Control probes ride the top lane: never shed, never rejected.
		every(c.Eng(), 0, window, 25*sim.Microsecond, func(k uint64) {
			node, id := dest(k + uint64(i)*3)
			c.Send(workload.Request{
				Node: node, Dst: id, Size: 128,
				FlowID: 1<<48 | uint64(i)<<32 | k,
				Tenant: tenant, Class: uint8(qos.ClassControl),
			})
		})
		// Telemetry bursts from the untabled infrastructure tenant:
		// 24 back-to-back packets at one destination overrun the
		// 8-deep telemetry lane and shed the excess without touching
		// the tabled tenants' budgets.
		every(c.Eng(), 0, window, 100*sim.Microsecond, func(k uint64) {
			node, id := dest(k + uint64(i))
			for j := 0; j < 24; j++ {
				c.Send(workload.Request{
					Node: node, Dst: id, Size: 128,
					FlowID: 2<<48 | uint64(i)<<32 | k,
					Tenant: 99, Class: uint8(qos.ClassTelemetry),
				})
			}
		})
	}
	// One untabled bulk stream slams 96-deep data trains into the far
	// node: the 32-deep data watermark defers the overflow
	// (backpressure) but, unlike telemetry, never drops it.
	bulkDst := nodes - 1
	every(clients[0].Eng(), 0, window, 50*sim.Microsecond, func(k uint64) {
		for j := 0; j < 96; j++ {
			clients[0].Send(workload.Request{
				Node: fmt.Sprintf("n%03d", bulkDst), Dst: actor.ID(1 + bulkDst),
				Size: 128, FlowID: 3<<48 | k, Tenant: 98,
			})
		}
	})

	cl.RunUntil(window)

	s := mesh.Summarize(clients)
	return qosLanesOutcome{nodes: nodes, parts: parts,
		ops: s.Received, sent: s.Sent, p50: s.P50us, p99: s.P99us,
		laneLedger: laneTotals(rt), tenantLedger: tenantTotals(rt, 2),
		crossed: cl.Group.Crossed(), rounds: cl.Group.Rounds()}
}

func qosLanes(opts Options) *Result {
	o := qosLanesRun(opts)

	r := &Result{Header: []string{"metric", "value"}}
	meshRows(r, o.nodes, o.parts, o.sent, o.ops)
	latencyRow(r, o.p50, o.p99)
	o.laneLedger.addRows(r)
	o.tenantLedger.addRows(r, "even", "odd")
	r.Add("handoffs/rounds", fmt.Sprintf("%d/%d", o.crossed, o.rounds))
	r.Note("partitioned echo mesh with tagged traffic; rows are byte-identical at any PDES worker count")
	r.Note("contract: control is never shed, telemetry bursts shed at the watermark, bulk data is deferred but never dropped, and the odd tenant's excess is rejected at the edge")
	return r
}
