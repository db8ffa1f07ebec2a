package bench

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/apps/dt"
	"repro/internal/apps/rkv"
	"repro/internal/apps/rta"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

func init() {
	register("fig13", "Host CPU cores used: DPDK vs iPipe, by packet size and link speed", fig13)
	register("fig14", "Latency vs per-core throughput, 10GbE, 512B (RTA/DT/RKV)", fig14)
	register("fig15", "Latency vs per-core throughput, 25GbE, 512B (RTA/DT/RKV)", fig15)
	register("fig17", "Framework overhead: RKV host CPU with and without iPipe", fig17)
}

// appRun is one measured deployment run.
type appRun struct {
	// coresUsed per measured role node.
	coresUsed map[string]float64
	// tput is achieved ops/sec; p50/p99 are latency percentiles (µs),
	// valid only when LatOK (a window that completed nothing has no
	// latency — reporters print "-" rather than a fake 0).
	tput     float64
	p50, p99 float64
	latOK    bool
}

// latCell formats a latency percentile, "-" when the sample was empty.
func latCell(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

// nicFor returns the NIC model for a link speed, or nil for DPDK mode.
func nicFor(linkGbps float64, offload bool) *spec.NICModel {
	if !offload {
		return nil
	}
	if linkGbps >= 25 {
		return spec.LiquidIOII_CN2360()
	}
	return spec.LiquidIOII_CN2350()
}

const appShards = 4

// runRTA deploys the analytics pipeline on 3 worker nodes and drives
// tuple batches at every worker. Measured role: "RTA Worker" (node 0).
func runRTA(opts Options, linkGbps float64, offload bool, size, depth int, window sim.Time) appRun {
	cl := opts.cluster()
	nic := nicFor(linkGbps, offload)
	var nodes []*core.Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, cl.AddNode(core.Config{
			Name: fmt.Sprintf("w%d", i), NIC: nic, LinkGbps: linkGbps,
		}))
	}
	// Per node and shard: filter → counter → ranker; one aggregator on
	// worker 0's host.
	aggID := actor.ID(900)
	agg, _ := rta.NewAggregator(aggID, 10, nil)
	nodes[0].Register(agg, false, 0)
	id := actor.ID(1000)
	var filters []struct {
		node string
		id   actor.ID
	}
	for _, n := range nodes {
		for s := 0; s < appShards; s++ {
			topo := rta.Topology{Filter: id, Counter: id + 1, Ranker: id + 2, Aggregator: aggID}
			f, _ := rta.NewFilter(topo.Filter, topo, []string{"xanadu", "qzx"})
			c, _ := rta.NewCounter(topo.Counter, topo, rta.CounterConfig{WindowSlots: 4, EmitEvery: 16})
			r, _ := rta.NewRanker(topo.Ranker, topo, 10)
			n.Register(f, offload, 0)
			n.Register(c, offload, 0)
			n.Register(r, offload, 0)
			filters = append(filters, struct {
				node string
				id   actor.ID
			}{n.Name, topo.Filter})
			id += 3
		}
	}
	client := workload.NewClient(cl, "cli", linkGbps)
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	// Tuples per request scale with packet size (§5.1).
	perReq := size / 32
	if perReq < 1 {
		perReq = 1
	}
	z := workload.NewZipf(cl.Eng.Rand(), uint64(len(words)), 0.9)
	client.ClosedLoop(depth*len(filters), window, func(i uint64) workload.Request {
		t := filters[int(i)%len(filters)]
		tuples := make([]string, perReq)
		for j := range tuples {
			tuples[j] = words[z.Next()]
		}
		return workload.Request{
			Node: t.node, Dst: t.id, Kind: rta.KindTuples,
			Data: rta.EncodeTuples(tuples), Size: size, FlowID: i,
		}
	})
	cl.Eng.RunUntil(window)
	return collect(cl, client, window, map[string]string{"RTA Worker": "w0"})
}

// runDT deploys coordinator + two participants. Measured roles:
// "DT Coord." (coordinator node) and "DT Parti." (participant node).
func runDT(opts Options, linkGbps float64, offload bool, size, depth int, window sim.Time) appRun {
	cl := opts.cluster()
	nic := nicFor(linkGbps, offload)
	nc := cl.AddNode(core.Config{Name: "coord", NIC: nic, LinkGbps: linkGbps})
	n1 := cl.AddNode(core.Config{Name: "part1", NIC: nic, LinkGbps: linkGbps})
	n2 := cl.AddNode(core.Config{Name: "part2", NIC: nic, LinkGbps: linkGbps})
	// One coordinator per shard (IDs 1000, 1004, …), each with its own
	// participant pair and host-pinned logger.
	var coords []actor.ID
	for id := actor.ID(1000); len(coords) < appShards; id += 4 {
		if _, err := (deploy.DTSpec{Common: deploy.Common{Placement: deploy.Placement{OnNIC: offload}},
			Coordinator: nc, Participants: []*core.Node{n1, n2}, BaseID: id}).Deploy(); err != nil {
			panic(err)
		}
		coords = append(coords, id)
	}
	client := workload.NewClient(cl, "cli", linkGbps)
	valLen := size / 4
	client.ClosedLoop(depth*len(coords), window, func(i uint64) workload.Request {
		// Multi-key read-write txn: two reads, one write (§5.1).
		txn := dt.Txn{
			Reads: []dt.Op{
				{Key: []byte(fmt.Sprintf("r%d", i%256))},
				{Key: []byte(fmt.Sprintf("r%d", (i+11)%256))},
			},
			Writes: []dt.Op{{Key: []byte(fmt.Sprintf("w%d", i%128)), Value: make([]byte, valLen)}},
		}
		return workload.Request{
			Node: "coord", Dst: coords[int(i)%len(coords)], Kind: dt.KindTxn,
			Data: dt.EncodeTxn(txn), Size: size, FlowID: i,
		}
	})
	cl.Eng.RunUntil(window)
	return collect(cl, client, window, map[string]string{
		"DT Coord.": "coord", "DT Parti.": "part1",
	})
}

// kvNodes builds a cluster of n nodes kv0..kv{n-1} from cfg.
func kvNodes(opts Options, n int, cfg core.Config) (*core.Cluster, []*core.Node) {
	cl := opts.cluster()
	nodes := make([]*core.Node, n)
	for i := range nodes {
		cfg.Name = fmt.Sprintf("kv%d", i)
		nodes[i] = cl.AddNode(cfg)
	}
	return cl, nodes
}

// rkvCluster stands up §5.1's RKV deployment: three nodes kv0..kv2
// built from cfg, and appShards replica groups over all three (leaders
// on kv0), placed on the NIC when offload. It returns the groups'
// leader actor IDs.
func rkvCluster(opts Options, cfg core.Config, offload bool) (*core.Cluster, []actor.ID) {
	cl, nodes := kvNodes(opts, 3, cfg)
	var leaders []actor.ID
	for base := actor.ID(1000); len(leaders) < appShards; base += 16 {
		d, err := rkv.Deploy(nodes, base, 8<<20, offload)
		if err != nil {
			panic(err)
		}
		leaders = append(leaders, d.LeaderActor())
	}
	return cl, leaders
}

// rkvMix is §5.1's RKV request mix, round-robin over the shard leaders:
// Zipf(0.99) keys over 100K, 95% GETs and 5% PUTs of valLen bytes.
func rkvMix(cl *core.Cluster, leaders []actor.ID, size, valLen int) func(i uint64) workload.Request {
	z := workload.NewZipf(cl.Eng.Rand(), 100000, 0.99)
	return func(i uint64) workload.Request {
		key := []byte(fmt.Sprintf("k%07d", z.Next()))
		data := rkv.GetReq(key)
		if i%20 == 0 {
			data = rkv.PutReq(key, make([]byte, valLen))
		}
		return workload.Request{
			Node: "kv0", Dst: leaders[int(i)%len(leaders)], Kind: rkv.KindReq,
			Data: data, Size: size, FlowID: i,
		}
	}
}

// runRKV deploys the replicated KV store (3 replicas × shards).
// Measured roles: "RKV Leader" (node 0) and "RKV Follower" (node 1).
func runRKV(opts Options, linkGbps float64, offload bool, size, depth int, window sim.Time) appRun {
	cl, leaders := rkvCluster(opts, core.Config{NIC: nicFor(linkGbps, offload), LinkGbps: linkGbps}, offload)
	client := workload.NewClient(cl, "cli", linkGbps)
	client.ClosedLoop(depth*len(leaders), window, rkvMix(cl, leaders, size, size/4))
	cl.Eng.RunUntil(window)
	return collect(cl, client, window, map[string]string{
		"RKV Leader": "kv0", "RKV Follower": "kv1",
	})
}

func collect(cl *core.Cluster, client *workload.Client, window sim.Time, roles map[string]string) appRun {
	out := appRun{coresUsed: map[string]float64{}}
	for role, node := range roles {
		// Allocated cores: measured busy cores plus the pinned polling
		// thread every kernel-bypass runtime dedicates (§5.1).
		out.coresUsed[role] = cl.Node(node).HostCoresAllocated()
	}
	out.tput = float64(client.Received) / window.Seconds()
	out.p50, out.latOK = client.Lat.PercentileOK(50)
	out.p99, _ = client.Lat.PercentileOK(99)
	return out
}

type roleRunner struct {
	app   string
	roles []string
	run   func(opts Options, linkGbps float64, offload bool, size, depth int, window sim.Time) appRun
}

var roleRunners = []roleRunner{
	{"RTA", []string{"RTA Worker"}, runRTA},
	{"DT", []string{"DT Coord.", "DT Parti."}, runDT},
	{"RKV", []string{"RKV Leader", "RKV Follower"}, runRKV},
}

func fig13(opts Options) *Result {
	window := 5 * sim.Millisecond
	sizes := []int{64, 256, 512, 1024}
	if opts.Quick {
		window = 2 * sim.Millisecond
		sizes = []int{256, 1024}
	}
	r := &Result{header: []string{"link", "role", "size(B)", "DPDK-cores", "iPipe-cores", "saved"}}
	// One sweep point per (link, app, size): each runs the DPDK baseline
	// and the iPipe deployment on its own pair of clusters.
	type point struct {
		link float64
		rr   roleRunner
		size int
	}
	var pts []point
	for _, link := range []float64{10, 25} {
		for _, rr := range roleRunners {
			for _, size := range sizes {
				pts = append(pts, point{link, rr, size})
			}
		}
	}
	type outcome struct{ base, off appRun }
	outs := sweepMap(opts, len(pts), func(i int) outcome {
		p := pts[i]
		return outcome{
			base: p.rr.run(opts, p.link, false, p.size, 24, window),
			off:  p.rr.run(opts, p.link, true, p.size, 24, window),
		}
	})
	var totalSaved10, totalSaved25 float64
	var n10, n25 int
	for i, p := range pts {
		for _, role := range p.rr.roles {
			saved := outs[i].base.coresUsed[role] - outs[i].off.coresUsed[role]
			r.add(fmt.Sprintf("%.0fGbE", p.link), role, p.size,
				outs[i].base.coresUsed[role], outs[i].off.coresUsed[role], saved)
			if p.size >= 256 {
				if p.link == 10 {
					totalSaved10 += saved
					n10++
				} else {
					totalSaved25 += saved
					n25++
				}
			}
		}
	}
	if n10 > 0 && n25 > 0 {
		r.note("mean cores saved (256B+): %.2f at 10GbE, %.2f at 25GbE (paper: up to 2.2 / 3.1; avg 1.8-2.2 / 2.5-3.1)",
			totalSaved10/float64(n10), totalSaved25/float64(n25))
	}
	r.note("64B: NIC cores are consumed by packet forwarding, so savings shrink (paper: no room for actor execution)")
	return r
}

func latVsTput(opts Options, link float64) *Result {
	window := 5 * sim.Millisecond
	depths := []int{1, 2, 4, 8, 16, 32}
	if opts.Quick {
		window = 2 * sim.Millisecond
		depths = []int{2, 8, 32}
	}
	r := &Result{header: []string{"app", "mode", "depth", "tput(Kops)", "per-core(Kops)", "p50(us)", "p99(us)"}}
	type point struct {
		rr      roleRunner
		offload bool
		di      int
	}
	var pts []point
	for _, rr := range roleRunners {
		for _, offload := range []bool{false, true} {
			for di := range depths {
				pts = append(pts, point{rr, offload, di})
			}
		}
	}
	runs := sweepMap(opts, len(pts), func(i int) appRun {
		p := pts[i]
		return p.rr.run(opts, link, p.offload, 512, depths[p.di], window)
	})
	type best struct{ dpdk, ipipe float64 }
	perCoreBest := map[string]*best{}
	latAtLow := map[string]*best{}
	for _, rr := range roleRunners {
		perCoreBest[rr.app] = &best{}
		latAtLow[rr.app] = &best{}
	}
	for i, p := range pts {
		run := runs[i]
		mode := "DPDK"
		if p.offload {
			mode = "iPipe"
		}
		// Per-core throughput normalizes by the measured primary
		// role's host usage (fractional cores, §5.3).
		cores := run.coresUsed[p.rr.roles[0]]
		perCore := run.tput / cores / 1e3
		r.add(p.rr.app, mode, depths[p.di], run.tput/1e3, perCore,
			latCell(run.p50, run.latOK), latCell(run.p99, run.latOK))
		b := perCoreBest[p.rr.app]
		if p.offload && perCore > b.ipipe {
			b.ipipe = perCore
		}
		if !p.offload && perCore > b.dpdk {
			b.dpdk = perCore
		}
		if p.di == 0 {
			if p.offload {
				latAtLow[p.rr.app].ipipe = run.p50
			} else {
				latAtLow[p.rr.app].dpdk = run.p50
			}
		}
	}
	for _, rr := range roleRunners {
		b := perCoreBest[rr.app]
		l := latAtLow[rr.app]
		r.note("%s: per-core throughput iPipe/DPDK = %.1fX; low-load p50 saving = %.1fus (paper: 2.2-4.3X; 5.4-28.0us)",
			rr.app, b.ipipe/b.dpdk, l.dpdk-l.ipipe)
	}
	return r
}

func fig14(opts Options) *Result { return latVsTput(opts, 10) }
func fig15(opts Options) *Result { return latVsTput(opts, 25) }

func fig17(opts Options) *Result {
	window := 5 * sim.Millisecond
	loads := []int{10, 30, 50, 70, 90}
	if opts.Quick {
		window = 2 * sim.Millisecond
		loads = []int{30, 90}
	}
	// Host-only RKV: capacity reference from a saturating closed loop.
	run := func(raw bool, rate float64) (leader, follower float64) {
		cl, leaders := rkvCluster(opts, core.Config{RawState: raw}, false)
		client := workload.NewClient(cl, "cli", 10)
		client.OpenLoop(rate, window, rkvMix(cl, leaders, 512, 128))
		cl.Eng.RunUntil(window + 2*sim.Millisecond)
		return cl.Node("kv0").HostCoresUsed(), cl.Node("kv1").HostCoresUsed()
	}
	// Reference max rate: what 90% load means (from line rate at 512B,
	// as the paper drives network load).
	maxRate := spec.LineRatePPS(10, 512) * 0.30 // app-level ceiling
	r := &Result{header: []string{"load(%)", "leader-no-ipipe", "leader-ipipe", "follower-no-ipipe", "follower-ipipe", "overhead(%)"}}
	// Points: loads × {raw, iPipe}; inner index 0 is the raw (no-iPipe)
	// deployment, 1 the instrumented one.
	type usage struct{ leader, follower float64 }
	g := grid{outer: len(loads), inner: 2}
	cells := sweepMap(opts, g.size(), func(i int) usage {
		li, ri := g.split(i)
		rate := maxRate * float64(loads[li]) / 100
		l, f := run(ri == 0, rate)
		return usage{l, f}
	})
	var overheads []float64
	for li, load := range loads {
		raw, inst := cells[li*2], cells[li*2+1]
		ovh := 0.0
		if raw.leader > 0 {
			ovh = (inst.leader - raw.leader) / raw.leader * 100
		}
		overheads = append(overheads, ovh)
		r.add(load, raw.leader, inst.leader, raw.follower, inst.follower, ovh)
	}
	var sum float64
	for _, o := range overheads {
		sum += o
	}
	r.note("mean iPipe framework overhead on the leader: %.1f%% (paper: 12.3%% leader, 10.8%% follower)", sum/float64(len(overheads)))
	r.note("sources: message handling, DMO address translation, scheduler statistics (§5.5)")
	return r
}
