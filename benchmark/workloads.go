package main

import (
	"fmt"
	"strconv"

	"repro/internal/actor"
	"repro/internal/apps/dt"
	"repro/internal/apps/rkv"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// pdesWorkers is fixed: results are worker-count independent, and two
// workers is what the 2-core reference box can actually run in parallel.
const pdesWorkers = 2

// wlSpec describes one whole-simulation workload. Names are final: later
// issues cite them.
type wlSpec struct {
	name string
	why  string
	// window is the virtual time one measured repetition simulates. It is
	// a constant sized on the 2-core reference box so a repetition costs
	// 2–3 s of host time; it is never calibrated at run time, so the
	// simulated metrics of a (workload, seed) pair are frozen.
	window sim.Time
	// pdes marks a partitioned workload: its simulated fields must not
	// depend on the worker count.
	pdes bool
	// build constructs the cluster, deploys the application, attaches the
	// closed-loop clients and arms them. observe, when non-nil, runs right
	// after the cluster is created — before any node exists — so the traced
	// pass can attach tracer, collector and checkers from the first event.
	build func(seed uint64, window sim.Time, workers int, observe func(*core.Cluster)) *instance
}

// instance is one built cluster, ready for RunUntil(window).
type instance struct {
	cl      *core.Cluster
	nodes   []*core.Node
	clients []*workload.Client
	// depth[i] is client i's closed-loop window: the most requests it may
	// legitimately still have in flight at the deadline.
	depth []int
	// actors lists every actor the builder can reach, with its node; the
	// traced pass wraps their handlers to count DMO calls and reads their
	// DMO footprint.
	actors []placed
	// invalid counts replies whose status byte is not one the
	// application's protocol defines.
	invalid uint64
}

type placed struct {
	node *core.Node
	a    *actor.Actor
}

var workloads = []wlSpec{
	{
		name:   "mesh_classic",
		why:    "bare forwarding of 256B echo RPCs over 64 NIC nodes on one engine: netsim, gate, sched FCFS, core.Deliver and the client do all the work; no host, PCIe, DMO or PDES",
		window: 25 * sim.Millisecond,
		build: func(seed uint64, window sim.Time, _ int, observe func(*core.Cluster)) *instance {
			return buildMesh(seed, window, 1, 1, observe)
		},
	},
	{
		name:   "mesh_pdes",
		why:    "the same mesh traffic on 8 partitions and 2 workers: the only extra work is sim.Group rounds, inbox drains and netsim cross-partition handoff",
		window: 25 * sim.Millisecond,
		pdes:   true,
		build: func(seed uint64, window sim.Time, workers int, observe func(*core.Cluster)) *instance {
			return buildMesh(seed, window, 8, workers, observe)
		},
	},
	{
		name:   "rkv_mixed",
		why:    "offloaded replicated KV, 95% GET over a store that starts empty: misses cross memtable, msgring/PCIe and the host SSTable reader, so the NIC-host crossing dominates",
		window: 400 * sim.Millisecond,
		build: func(seed uint64, window sim.Time, _ int, observe func(*core.Cluster)) *instance {
			return buildRKV(seed, window, 20, observe)
		},
	},
	{
		name:   "rkv_write",
		why:    "the same deployment at 50% PUT: Paxos replication to two followers, DMO allocation and writes, memtable flushes to host compaction; guards writes against read-side gains",
		window: 100 * sim.Millisecond,
		build: func(seed uint64, window sim.Time, _ int, observe func(*core.Cluster)) *instance {
			return buildRKV(seed, window, 2, observe)
		},
	},
	{
		name:   "dt_host",
		why:    "2PC transactions on baseline (no-SmartNIC) nodes: hostsim, netsim and apps/dt only, so every NIC-side optimisation must predict no change here",
		window: 150 * sim.Millisecond,
		build:  buildDT,
	},
}

func workloadByName(name string) (wlSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return wlSpec{}, false
}

// Mesh parameters (internal/mesh defaults; the paper's RKV skew).
const (
	meshNodes     = 64
	meshDepth     = 2
	meshTheta     = 0.99
	meshReqSize   = 256
	meshServiceNs = 1500
)

// buildMesh mirrors internal/mesh.Run's construction order exactly — the
// simulated results equal mesh.Run's for the same (seed, partitions) —
// but keeps the cluster and clients reachable so set-up, live heap,
// p99.9 and the closed-loop ledger can be measured. The request
// generator is the benchmark's own code: destination names come from a
// table built at set-up, not formatted per request.
func buildMesh(seed uint64, window sim.Time, parts, workers int, observe func(*core.Cluster)) *instance {
	cl := core.NewPartitionedCluster(seed, parts)
	cl.SetPDESWorkers(workers)
	if observe != nil {
		observe(cl)
	}
	inst := &instance{cl: cl}
	names := make([]string, meshNodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%03d", i)
	}
	for i := 0; i < meshNodes; i++ {
		n := cl.AddNode(core.Config{
			Name:             names[i],
			NIC:              spec.LiquidIOII_CN2350(),
			DisableMigration: true,
		})
		a := &actor.Actor{
			ID:     actor.ID(1 + i),
			Name:   fmt.Sprintf("svc%03d", i),
			PinNIC: true,
			OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
				ctx.Reply(m)
				return meshServiceNs
			},
		}
		if err := n.Register(a, true, 1<<20); err != nil {
			panic(err)
		}
		inst.nodes = append(inst.nodes, n)
		inst.actors = append(inst.actors, placed{n, a})
	}
	for i, n := range inst.nodes {
		c := workload.NewClientAt(cl, fmt.Sprintf("c%03d", i), cl.Net.LinkGbps(n.Name), n.Part)
		inst.clients = append(inst.clients, c)
		inst.depth = append(inst.depth, meshDepth)
	}
	for i, c := range inst.clients {
		i := i
		zipf := workload.NewZipf(c.Eng().Rand(), meshNodes, meshTheta)
		c.ClosedLoop(meshDepth, window, func(k uint64) workload.Request {
			dst := int(zipf.Next())
			if dst == i {
				dst = (dst + 1) % meshNodes // never self: keep traffic on the wire
			}
			return workload.Request{
				Node:   names[dst],
				Dst:    actor.ID(1 + dst),
				Size:   meshReqSize,
				FlowID: uint64(i)<<32 | (k + 1),
			}
		})
	}
	return inst
}

// App deployment parameters (internal/bench runRKV / runDT, §5.1).
const (
	appShards  = 4
	appSize    = 512
	appDepth   = 8 // outstanding requests per shard
	appLink    = 10.0
	rkvKeys    = 100000
	rkvMemLim  = 8 << 20
	rkvValLen  = appSize / 4
	dtReadKeys = 256
	dtWriteKey = 128
)

// buildRKV deploys 3 offloaded CN2350 replicas × 4 Paxos groups and one
// closed-loop client; every putEvery-th request is a PUT, the rest GETs,
// keys Zipf(0.99) over 100k. The store starts empty.
func buildRKV(seed uint64, window sim.Time, putEvery uint64, observe func(*core.Cluster)) *instance {
	cl := core.NewCluster(seed)
	if observe != nil {
		observe(cl)
	}
	inst := &instance{cl: cl}
	for i := 0; i < 3; i++ {
		inst.nodes = append(inst.nodes, cl.AddNode(core.Config{
			Name: fmt.Sprintf("kv%d", i), NIC: spec.LiquidIOII_CN2350(), LinkGbps: appLink,
		}))
	}
	var leaders []actor.ID
	base := actor.ID(1000)
	for s := 0; s < appShards; s++ {
		d, err := rkv.Deploy(inst.nodes, base, rkvMemLim, true)
		if err != nil {
			panic(err)
		}
		leaders = append(leaders, d.LeaderActor())
		for _, r := range d.Replicas {
			inst.actors = append(inst.actors, placed{r.Node, r.Consensus.Actor}, placed{r.Node, r.Memtable.Actor})
		}
		base += 16
	}
	client := workload.NewClient(cl, "cli", appLink)
	inst.clients = []*workload.Client{client}
	inst.depth = []int{appDepth * len(leaders)}
	z := workload.NewZipf(cl.Eng.Rand(), rkvKeys, 0.99)
	check := func(resp actor.Msg) {
		if st := rkv.StatusOf(resp.Data); st != rkv.StatusOK && st != rkv.StatusNotFound {
			inst.invalid++
		}
	}
	client.ClosedLoop(inst.depth[0], window, func(i uint64) workload.Request {
		key := appendKey(make([]byte, 0, 8), 'k', z.Next())
		data := rkv.GetReq(key)
		if i%putEvery == 0 {
			data = rkv.PutReq(key, make([]byte, rkvValLen))
		}
		return workload.Request{
			Node: "kv0", Dst: leaders[int(i)%len(leaders)], Kind: rkv.KindReq,
			Data: data, Size: appSize, FlowID: i, OnResp: check,
		}
	})
	return inst
}

// buildDT deploys a 2PC coordinator and two participants × 4 shards on
// baseline nodes (NIC: nil — the paper's DPDK comparator) and one
// closed-loop client issuing 2-read/1-write transactions.
func buildDT(seed uint64, window sim.Time, _ int, observe func(*core.Cluster)) *instance {
	cl := core.NewCluster(seed)
	if observe != nil {
		observe(cl)
	}
	inst := &instance{cl: cl}
	for _, name := range []string{"coord", "part1", "part2"} {
		inst.nodes = append(inst.nodes, cl.AddNode(core.Config{Name: name, LinkGbps: appLink}))
	}
	nc, n1, n2 := inst.nodes[0], inst.nodes[1], inst.nodes[2]
	var coords []actor.ID
	id := actor.ID(1000)
	for s := 0; s < appShards; s++ {
		p1 := dt.NewParticipant(id+1, dt.NewStore())
		p2 := dt.NewParticipant(id+2, dt.NewStore())
		logger := dt.NewLogger(id+3, nil)
		coord := dt.NewCoordinator(id, []actor.ID{id + 1, id + 2}, id+3)
		for _, p := range []placed{{n1, p1}, {n2, p2}, {nc, logger}, {nc, coord.Actor}} {
			if err := p.node.Register(p.a, false, 0); err != nil {
				panic(err)
			}
			inst.actors = append(inst.actors, p)
		}
		coords = append(coords, id)
		id += 4
	}
	client := workload.NewClient(cl, "cli", appLink)
	inst.clients = []*workload.Client{client}
	inst.depth = []int{appDepth * len(coords)}
	check := func(resp actor.Msg) {
		if o := dt.OutcomeOf(resp.Data); o != dt.OutcomeCommitted && o != dt.OutcomeAborted {
			inst.invalid++
		}
	}
	rnd := cl.Eng.Rand()
	client.ClosedLoop(inst.depth[0], window, func(i uint64) workload.Request {
		// Read keys are drawn from the seeded engine PRNG (runDT derives
		// them from i, which would make every seed the same run); write
		// keys stay i-based so concurrent transactions never contend for
		// a lock and none aborts.
		txn := dt.Txn{
			Reads: []dt.Op{
				{Key: appendKey(make([]byte, 0, 4), 'r', uint64(rnd.Intn(dtReadKeys)))},
				{Key: appendKey(make([]byte, 0, 4), 'r', uint64(rnd.Intn(dtReadKeys)))},
			},
			Writes: []dt.Op{{Key: appendKey(make([]byte, 0, 4), 'w', i%dtWriteKey), Value: make([]byte, appSize/4)}},
		}
		return workload.Request{
			Node: "coord", Dst: coords[int(i)%len(coords)], Kind: dt.KindTxn,
			Data: dt.EncodeTxn(txn), Size: appSize, FlowID: i, OnResp: check,
		}
	})
	return inst
}

// appendKey appends prefix+decimal(v): a generated key, without fmt.
func appendKey(b []byte, prefix byte, v uint64) []byte {
	return strconv.AppendUint(append(b, prefix), v, 10)
}
