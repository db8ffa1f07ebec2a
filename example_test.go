package ipipe_test

import (
	"fmt"

	ipipe "repro"
	"repro/internal/workload"
)

// Example is the smallest complete iPipe program: one SmartNIC-equipped
// server, one echo actor offloaded to the NIC, one client. It shows the
// deployment loop: build a cluster, register an actor, drive requests,
// read measurements.
func Example() {
	cl := ipipe.NewCluster(1)

	// A server with a 10GbE LiquidIOII CN2350 SmartNIC.
	node := cl.AddNode(ipipe.NodeConfig{
		Name: "srv",
		NIC:  ipipe.LiquidIOII_CN2350(),
	})

	// An echo actor: replies with the request payload, costing 2µs of
	// reference-core time per invocation.
	echo := &ipipe.Actor{
		ID:   1,
		Name: "echo",
		OnMessage: func(ctx ipipe.Ctx, m ipipe.Msg) ipipe.Duration {
			ctx.Reply(m)
			return 2 * ipipe.Microsecond
		},
	}
	if err := node.Register(echo, true /* offload to the NIC */, 0); err != nil {
		panic(err)
	}

	// A client on the same switch, sending 1000 requests of 512B.
	client := ipipe.NewClient(cl, "cli", 10)
	for i := 0; i < 1000; i++ {
		at := ipipe.Duration(i) * 5 * ipipe.Microsecond
		cl.Eng.At(at, func() {
			client.Send(ipipe.Request{Node: "srv", Dst: 1, Size: 512, FlowID: uint64(i)})
		})
	}
	cl.Eng.Run()

	fmt.Printf("sent=%d received=%d\n", client.Sent, client.Received)
	fmt.Printf("latency: p50=%.2fus p99=%.2fus\n",
		client.Lat.Percentile(50), client.Lat.Percentile(99))
	fmt.Printf("host cores used: %.3f (the echo ran entirely on the NIC)\n",
		node.HostCoresUsed())
	// Output:
	// sent=1000 received=1000
	// latency: p50=6.60us p99=6.60us
	// host cores used: 0.000 (the echo ran entirely on the NIC)
}

// Example_kvstore is the paper's replicated key-value store (§4):
// Multi-Paxos consensus over an LSM tree whose Memtable skip list lives
// in distributed memory objects, scaled out over four shards (one Paxos
// group per shard, routed by consistent hashing) on six SmartNIC
// replicas. It is driven with the §5.1 workload: 1M keys, Zipf 0.99,
// 95% reads / 5% writes, with same-shard requests coalesced into message
// trains (insight I6).
func Example_kvstore() {
	cl := ipipe.NewCluster(42)
	var nodes []*ipipe.Node
	for i := 0; i < 6; i++ {
		nodes = append(nodes, cl.AddNode(ipipe.NodeConfig{
			Name: fmt.Sprintf("kv%d", i),
			NIC:  ipipe.LiquidIOII_CN2350(),
		}))
	}

	// Deploy 4 shards × 3 replicas rotated over the 6 nodes, with a
	// 16KB Memtable so minor compactions happen during the short run;
	// the paper sized Memtables to NIC DRAM (≈32MB).
	d, err := ipipe.RKVSpec{
		Common:   ipipe.DeployCommon{Placement: ipipe.OnNIC},
		Nodes:    nodes,
		BaseID:   100,
		MemLimit: 16 << 10,
		Shards:   4,
	}.Deploy()
	if err != nil {
		panic(err)
	}

	client := ipipe.NewClient(cl, "cli", 10)
	// Coalesce up to 8 same-shard requests staged within the default
	// 2µs window into one message train.
	batcher := ipipe.NewBatcher(client, 0, 8)
	z := workload.NewZipf(cl.Eng.Rand(), 1_000_000, 0.99)
	var ok, notFound int
	perShard := make([]int, d.Router.Shards())
	client.ClosedLoopVia(32, 50*ipipe.Millisecond, func(i uint64) ipipe.Request {
		key := []byte(fmt.Sprintf("key-%07d", z.Next()))
		data := ipipe.RKVGet(key)
		if i%20 == 0 { // 5% writes
			data = ipipe.RKVPut(key, make([]byte, 128))
		}
		shard := d.ShardFor(key)
		node, leader := d.LeaderFor(key)
		return ipipe.Request{
			Node: node, Dst: leader, Kind: ipipe.RKVKindReq,
			Data: data, Size: 512, FlowID: i,
			OnResp: func(resp ipipe.Msg) {
				perShard[shard]++
				switch ipipe.RKVStatusOf(resp.Data) {
				case ipipe.RKVStatusOK:
					ok++
				case ipipe.RKVStatusNotFound:
					notFound++
				}
			},
		}
	}, batcher.Add)
	cl.Eng.Run()

	fmt.Printf("operations: %d (ok=%d notFound=%d)\n", client.Received, ok, notFound)
	fmt.Printf("latency: p50=%.2fus p99=%.2fus\n",
		client.Lat.Percentile(50), client.Lat.Percentile(99))
	fmt.Printf("message trains: %d (coalesced %d requests)\n", batcher.Trains, batcher.Coalesced)
	for s, n := range perShard {
		g := d.Group(s)
		lead := g.Leader()
		fmt.Printf("shard %d: %d ops, leader=%s, log=%d entries, compactions=%d\n",
			s, n, lead.Node.Name, lead.Consensus.LogLen(), lead.Memtable.Compactions)
	}
	fmt.Printf("leader host cores used: %.2f\n", nodes[0].HostCoresUsed())
	// Output:
	// operations: 46946 (ok=18284 notFound=28662)
	// latency: p50=22.18us p99=128.38us
	// message trains: 11816 (coalesced 26186 requests)
	// shard 0: 11987 ops, leader=kv0, log=605 entries, compactions=4
	// shard 1: 12786 ops, leader=kv1, log=616 entries, compactions=3
	// shard 2: 13003 ops, leader=kv2, log=674 entries, compactions=3
	// shard 3: 9170 ops, leader=kv3, log=453 entries, compactions=3
	// leader host cores used: 0.41
}

// Example_transactions is the distributed transaction system of §4:
// optimistic concurrency control with two-phase commit. A coordinator
// actor on one SmartNIC drives read-lock / validate / log / commit
// rounds against participant actors on two other SmartNICs; a logging
// actor pinned to the coordinator's host persists checkpointed
// coordinator logs.
func Example_transactions() {
	cl := ipipe.NewCluster(3)
	coordNode := cl.AddNode(ipipe.NodeConfig{Name: "coord", NIC: ipipe.LiquidIOII_CN2350()})
	p1 := cl.AddNode(ipipe.NodeConfig{Name: "part1", NIC: ipipe.LiquidIOII_CN2350()})
	p2 := cl.AddNode(ipipe.NodeConfig{Name: "part2", NIC: ipipe.LiquidIOII_CN2350()})

	d, err := ipipe.DTSpec{
		Common:       ipipe.DeployCommon{Placement: ipipe.OnNIC},
		Coordinator:  coordNode,
		Participants: []*ipipe.Node{p1, p2},
		BaseID:       100,
	}.Deploy()
	if err != nil {
		panic(err)
	}
	coord, stores := d.Coord, d.Stores

	client := ipipe.NewClient(cl, "cli", 10)
	// The §5.1 transaction shape: two reads and one write per txn, with
	// deliberate contention on a small hot write-set.
	var committed, aborted int
	client.ClosedLoop(12, 30*ipipe.Millisecond, func(i uint64) ipipe.Request {
		txn := ipipe.DTTxn{
			Reads: []ipipe.DTOp{
				{Key: []byte(fmt.Sprintf("acct-%03d", i%200))},
				{Key: []byte(fmt.Sprintf("acct-%03d", (i+37)%200))},
			},
			Writes: []ipipe.DTOp{{
				// Square the index so concurrent transactions collide on
				// the hot write set (consecutive i map to repeating keys).
				Key:   []byte(fmt.Sprintf("bal-%02d", (i*i)%12)),
				Value: []byte(fmt.Sprintf("v%d", i)),
			}},
		}
		return ipipe.Request{
			Node: "coord", Dst: 100, Kind: ipipe.DTKindTxn,
			Data: ipipe.DTEncodeTxn(txn), Size: 512, FlowID: i,
			OnResp: func(resp ipipe.Msg) {
				switch ipipe.DTOutcomeOf(resp.Data) {
				case ipipe.DTOutcomeCommitted:
					committed++
				case ipipe.DTOutcomeAborted:
					aborted++
				}
			},
		}
	})
	cl.Eng.Run()

	fmt.Printf("transactions: %d committed, %d aborted (%.1f%% abort rate under contention)\n",
		committed, aborted, 100*float64(aborted)/float64(committed+aborted))
	fmt.Printf("coordinator log checkpoints to host: %d\n", coord.Checkpoints)
	fmt.Printf("latency: p50=%.2fus p99=%.2fus\n",
		client.Lat.Percentile(50), client.Lat.Percentile(99))
	for i, st := range stores {
		g, l := st.Depths()
		fmt.Printf("participant %d store: %d records (extendible hash: global depth %d, max local %d, %d splits)\n",
			i+1, st.Len(), g, l, st.Splits)
	}
	fmt.Printf("coordinator host cores used: %.2f (protocol ran on the NIC)\n",
		coordNode.HostCoresUsed())
	// Output:
	// transactions: 3348 committed, 2440 aborted (42.2% abort rate under contention)
	// coordinator log checkpoints to host: 1
	// latency: p50=73.82us p99=88.20us
	// participant 1 store: 2 records (extendible hash: global depth 1, max local 1, 0 splits)
	// participant 2 store: 2 records (extendible hash: global depth 1, max local 1, 0 splits)
	// coordinator host cores used: 0.00 (protocol ran on the NIC)
}

// Example_analytics is the real-time analytics engine (§4, derived from
// FlexStorm): tuples flow filter → counter → ranker on the SmartNIC, and
// consolidated top-n views land at a host-side aggregator. The offered
// load swings, so actors migrate to the host when the NIC runs out of
// headroom and come back when load drops (dynamic, workload-aware
// offloading).
func Example_analytics() {
	cl := ipipe.NewCluster(7)
	node := cl.AddNode(ipipe.NodeConfig{
		Name: "worker",
		NIC:  ipipe.LiquidIOII_CN2350(),
	})

	var lastTop []ipipe.RTAEntry
	d, err := ipipe.RTASpec{
		Common:     ipipe.DeployCommon{Placement: ipipe.OnNIC},
		Node:       node,
		Aggregator: node,
		BaseID:     10,
		Discard:    []string{"spam", "noise"},
		TopN:       5,
		OnUpdate:   func(top []ipipe.RTAEntry) { lastTop = top },
	}.Deploy()
	if err != nil {
		panic(err)
	}
	topo := d.Topology

	words := []string{"go", "rust", "zig", "spam", "java", "python", "noise", "c"}
	client := ipipe.NewClient(cl, "cli", 10)
	send := func(i uint64, batch int) {
		tuples := make([]string, batch)
		for j := range tuples {
			tuples[j] = words[(int(i)+j)%len(words)]
		}
		client.Send(ipipe.Request{
			Node: "worker", Dst: topo.Filter, Kind: ipipe.RTAKindTuples,
			Data: ipipe.RTAEncodeTuples(tuples), Size: 512, FlowID: i,
		})
	}

	// Phase A: moderate load. Phase B: a burst of fat batches that
	// overloads the exclusive counter actor on the NIC. Phase C: calm,
	// so the runtime can pull actors back.
	var i uint64
	for at := ipipe.Duration(0); at < 10*ipipe.Millisecond; at += 20 * ipipe.Microsecond {
		cl.Eng.At(at, func() { send(i, 16) })
		i++
	}
	for at := 10 * ipipe.Millisecond; at < 25*ipipe.Millisecond; at += 3 * ipipe.Microsecond {
		cl.Eng.At(at, func() { send(i, 64) })
		i++
	}
	for at := 25 * ipipe.Millisecond; at < 40*ipipe.Millisecond; at += 20 * ipipe.Microsecond {
		cl.Eng.At(at, func() { send(i, 16) })
		i++
	}
	cl.Eng.Run()

	fmt.Printf("batches sent: %d, acknowledged: %d\n", client.Sent, client.Received)
	fmt.Println("consolidated top-5 (spam/noise filtered):")
	for _, e := range lastTop {
		fmt.Printf("  %-8s %d\n", e.Token, e.Count)
	}
	fmt.Printf("push migrations: %d, pull migrations: %d (the runtime moved actors with load)\n",
		node.Sched.PushMigrations, node.Sched.PullMigrations)
	for _, rec := range node.Migrations {
		fmt.Printf("  migrated %-12s total=%v (phase3=%v, %dB of state)\n",
			rec.Actor, rec.Total(), rec.Phase[2], rec.BytesMoved)
	}
	// Output:
	// batches sent: 6250, acknowledged: 6250
	// consolidated top-5 (spam/noise filtered):
	//   c        256
	//   go       256
	//   java     256
	//   python   256
	//   rust     256
	// push migrations: 3, pull migrations: 4 (the runtime moved actors with load)
	//   migrated rta-aggregator total=200µs (phase3=200µs, 0B of state)
	//   migrated rta-counter  total=1.610025ms (phase3=300µs, 0B of state)
	//   migrated rta-counter  total=200µs (phase3=200µs, 0B of state)
	//   migrated rta-counter  total=1.612025ms (phase3=300µs, 0B of state)
	//   migrated rta-counter  total=200µs (phase3=200µs, 0B of state)
	//   migrated rta-counter  total=1.612025ms (phase3=300µs, 0B of state)
	//   migrated rta-counter  total=200µs (phase3=200µs, 0B of state)
}

// Example_netfunc runs the §5.7 network functions on iPipe: a
// software-TCAM firewall with 8K wildcard rules, and an IPSec gateway
// doing real AES-256-CTR + HMAC-SHA1 with the SmartNIC's crypto engines.
func Example_netfunc() {
	cl := ipipe.NewCluster(9)
	node := cl.AddNode(ipipe.NodeConfig{Name: "gw", NIC: ipipe.LiquidIOII_CN2350()})

	// Firewall with 8K rules plus a couple of hand-written ones up front.
	rules := append([]ipipe.FirewallRule{
		{ // deny a specific host outright
			Value:    ipipe.FiveTuple{SrcIP: 0x0a000005},
			Mask:     ipipe.FiveTuple{SrcIP: 0xffffffff},
			Priority: -2,
		},
		{ // allow port 80 from anywhere
			Value:    ipipe.FiveTuple{DstPort: 80, Proto: 17},
			Mask:     ipipe.FiveTuple{DstPort: 0xffff, Proto: 0xff},
			Priority: -1,
			Allow:    true,
		},
	}, ipipe.UniformFirewallRules(8192)...)
	if _, err := (ipipe.FirewallSpec{
		Common: ipipe.DeployCommon{Placement: ipipe.OnNIC},
		Node:   node, ID: 1, Rules: rules,
	}).Deploy(); err != nil {
		panic(err)
	}
	if _, err := (ipipe.IPSecSpec{
		Common: ipipe.DeployCommon{Placement: ipipe.OnNIC},
		Node:   node, ID: 2, Key: make([]byte, 32),
		MACKey: []byte("gateway-mac-key"),
	}).Deploy(); err != nil {
		panic(err)
	}

	client := ipipe.NewClient(cl, "cli", 10)
	var allowed, denied, sealed int
	for i := 0; i < 2000; i++ {
		at := ipipe.Duration(i) * 4 * ipipe.Microsecond
		cl.Eng.At(at, func() {
			if i%2 == 0 {
				// Real Ethernet/IPv4/UDP frames through the shim nstack.
				src := ipipe.NetAddr{MAC: ipipe.NetMAC{2, 0, 0, 0, 0, 1},
					IP: uint32(i) << 12, Port: uint16(40000 + i%1000)}
				dst := ipipe.NetAddr{MAC: ipipe.NetMAC{2, 0, 0, 0, 0, 2},
					IP: 0x0a000001, Port: uint16(22 + i%100)}
				if i%10 == 0 {
					src.IP = 0xc0a80001
					dst.Port = 80
				}
				frame := ipipe.Encap(src, dst, make([]byte, 64), 64)
				client.Send(ipipe.Request{
					Node: "gw", Dst: 1, Data: frame, Size: 1024, FlowID: uint64(i),
					OnResp: func(resp ipipe.Msg) {
						if ipipe.NFVerdictOf(resp.Data) == ipipe.NFVerdictAllow {
							allowed++
						} else {
							denied++
						}
					},
				})
			} else {
				client.Send(ipipe.Request{
					Node: "gw", Dst: 2, Data: make([]byte, 256), Size: 1024, FlowID: uint64(i),
					OnResp: func(resp ipipe.Msg) { sealed++ },
				})
			}
		})
	}
	cl.Eng.Run()

	fmt.Printf("firewall: %d allowed, %d denied (1KB packets, 8K+2 rules)\n", allowed, denied)
	fmt.Printf("ipsec: %d packets sealed with AES-256-CTR + HMAC-SHA1\n", sealed)
	fmt.Printf("AES engine invocations: %d, SHA-1: %d (hardware crypto, I4)\n",
		node.Accels.Invokes("AES"), node.Accels.Invokes("SHA-1"))
	fmt.Printf("latency: p50=%.2fus p99=%.2fus\n",
		client.Lat.Percentile(50), client.Lat.Percentile(99))
	// Output:
	// firewall: 270 allowed, 730 denied (1KB packets, 8K+2 rules)
	// ipsec: 1000 packets sealed with AES-256-CTR + HMAC-SHA1
	// AES engine invocations: 1000, SHA-1: 1000 (hardware crypto, I4)
	// latency: p50=7.55us p99=16.73us
}

// Example_isolation is §3.4's protection story. Several tenants' actors
// share one SmartNIC; one tries to read another's state (trapped by the
// DMO region guard) and one spins forever (killed by the per-core
// timeout watchdog), while the well-behaved tenant keeps its
// availability.
func Example_isolation() {
	cl := ipipe.NewCluster(13)
	node := cl.AddNode(ipipe.NodeConfig{
		Name:            "srv",
		NIC:             ipipe.LiquidIOII_CN2350(),
		WatchdogTimeout: 200 * ipipe.Microsecond,
	})

	// Tenant A: a well-behaved counter with private DMO state.
	var secretObj uint64
	tenantA := &ipipe.Actor{
		ID: 1, Name: "tenant-a",
		OnInit: func(ctx ipipe.Ctx) {
			secretObj, _ = ctx.Alloc(64)
			ctx.ObjWrite(secretObj, 0, []byte("tenant-a-secret"))
		},
		OnMessage: func(ctx ipipe.Ctx, m ipipe.Msg) ipipe.Duration {
			ctx.Reply(m)
			return 2 * ipipe.Microsecond
		},
	}

	// Tenant B: tries to read A's object through the DMO API.
	var stolen []byte
	var stealErr error
	tenantB := &ipipe.Actor{
		ID: 2, Name: "tenant-b-snoop",
		OnMessage: func(ctx ipipe.Ctx, m ipipe.Msg) ipipe.Duration {
			// An ObjRead view is borrowed until the handler returns;
			// what outlives it is a copy.
			view, err := ctx.ObjRead(secretObj, 0, 15)
			stolen, stealErr = append([]byte(nil), view...), err
			ctx.Reply(m)
			return ipipe.Microsecond
		},
	}

	// Tenant C: an infinite loop (modeled as an absurd execution cost).
	tenantC := &ipipe.Actor{
		ID: 3, Name: "tenant-c-spinner",
		OnMessage: func(ctx ipipe.Ctx, m ipipe.Msg) ipipe.Duration {
			return ipipe.Second // never yields
		},
	}

	for _, a := range []*ipipe.Actor{tenantA, tenantB, tenantC} {
		if err := node.Register(a, true, 0); err != nil {
			panic(err)
		}
	}

	client := ipipe.NewClient(cl, "cli", 10)
	// The snoop and the spinner fire early...
	client.Send(ipipe.Request{Node: "srv", Dst: 2, Size: 64})
	client.Send(ipipe.Request{Node: "srv", Dst: 3, Size: 64})
	// ...then tenant A serves a steady stream.
	for i := 0; i < 200; i++ {
		cl.Eng.At(ipipe.Duration(i+1)*20*ipipe.Microsecond, func() {
			client.Send(ipipe.Request{Node: "srv", Dst: 1, Size: 256})
		})
	}
	cl.Eng.Run()

	fmt.Printf("cross-actor read: data=%q err=%v (region guard, §3.4)\n", stolen, stealErr)
	fmt.Printf("isolation violations recorded against tenant-b: %d\n", node.Violations.Count(2))
	fmt.Printf("watchdog kills: %d (tenant-c deregistered, resources freed)\n", node.Watchdog.Kills)
	_, alive := cl.Table.Lookup(3)
	fmt.Printf("tenant-c still deployed: %v\n", alive)
	fmt.Printf("tenant-a availability: %d of %d requests answered, p99=%.2fus\n",
		client.Received-1, client.Sent-2, client.Lat.Percentile(99))
	// Output:
	// cross-actor read: data="" err=dmo: object owned by another actor (region guard, §3.4)
	// isolation violations recorded against tenant-b: 1
	// watchdog kills: 1 (tenant-c deregistered, resources freed)
	// tenant-c still deployed: false
	// tenant-a availability: 200 of 200 requests answered, p99=5.71us
}

// ExampleRKVSpec_Deploy stands up the paper's replicated key-value store
// on three SmartNIC-equipped replicas and performs a write then a read.
func ExampleRKVSpec_Deploy() {
	cl := ipipe.NewCluster(1)
	var nodes []*ipipe.Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, cl.AddNode(ipipe.NodeConfig{
			Name: fmt.Sprintf("kv%d", i), NIC: ipipe.LiquidIOII_CN2350(),
		}))
	}
	d, err := ipipe.RKVSpec{
		Common: ipipe.DeployCommon{Placement: ipipe.OnNIC},
		Nodes:  nodes, BaseID: 100, MemLimit: 1 << 20,
	}.Deploy()
	if err != nil {
		panic(err)
	}
	client := ipipe.NewClient(cl, "cli", 10)
	client.Send(ipipe.Request{
		Node: "kv0", Dst: d.LeaderActor(), Kind: ipipe.RKVKindReq,
		Data: ipipe.RKVPut([]byte("color"), []byte("teal")), Size: 256,
		OnResp: func(ipipe.Msg) {
			client.Send(ipipe.Request{
				Node: "kv0", Dst: d.LeaderActor(), Kind: ipipe.RKVKindReq,
				Data: ipipe.RKVGet([]byte("color")), Size: 256,
				OnResp: func(resp ipipe.Msg) {
					fmt.Printf("value=%s replicas-committed=%d\n",
						resp.Data[1:], d.Replicas[1].Consensus.LogLen())
				},
			})
		},
	})
	cl.Eng.Run()
	// Output:
	// value=teal replicas-committed=1
}

// Example_deploymentSpec is the README's deployment example: a replica
// group deployed with every field of the shared DeployCommon block and
// its failover policy set, whose leader node then crashes under client
// load.
func Example_deploymentSpec() {
	cl := ipipe.NewCluster(1)
	var nodes []*ipipe.Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, cl.AddNode(ipipe.NodeConfig{
			Name: fmt.Sprintf("kv%d", i), NIC: ipipe.LiquidIOII_CN2350(),
		}))
	}

	d, err := ipipe.RKVSpec{
		Common: ipipe.DeployCommon{ // shared policy block
			Placement: ipipe.OnNIC, // or ipipe.OnHost
			Faults: ipipe.FaultSchedule{Faults: []ipipe.Fault{ // optional failures
				ipipe.FaultCrash("kv0", 2*ipipe.Millisecond, 3*ipipe.Millisecond),
			}},
			Tenancy: &ipipe.Tenancy{ // optional multi-tenant QoS
				Tenants: []ipipe.Tenant{
					{Name: "prod", RatePerSec: 150_000, SLOp99Us: 250},
					{Name: "batch", RatePerSec: 60_000},
				},
				Controller: ipipe.SLOControllerConfig{Enabled: true},
			},
		},
		Failover: ipipe.FailoverPolicy{}, // leader re-election on crash
		Nodes:    nodes,                  // one replica each; first starts as leader
		BaseID:   100,
		MemLimit: 16 << 10,
	}.Deploy()
	if err != nil {
		panic(err)
	}

	client := ipipe.NewClient(cl, "cli", 10)
	d.QoS.Bind(client)
	client.ClosedLoop(4, 10*ipipe.Millisecond, func(i uint64) ipipe.Request {
		node, leader := d.LeaderFor(nil)
		return ipipe.Request{
			Node: node, Dst: leader, Kind: ipipe.RKVKindReq, Size: 256, FlowID: i,
			Data: ipipe.RKVPut([]byte(fmt.Sprintf("k%d", i%64)), []byte("v")),
			// client timeout/backoff: rides out the leader election
			Timeout: 500 * ipipe.Microsecond, Retries: 8,
			Backoff: 2, MaxTimeout: 4 * ipipe.Millisecond,
		}
	})
	cl.Eng.Run()
	fmt.Printf("answered=%d elections=%d\n", client.Received, d.Elections)
	// Output:
	// answered=213 elections=1
}

// ExampleExperiment regenerates one of the paper's tables.
func ExampleExperiment() {
	r, err := ipipe.Experiment("table2", true, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(r.Title)
	fmt.Println(len(r.Rows), "devices")
	// Output:
	// Memory hierarchy access latency (pointer chase)
	// 5 devices
}
