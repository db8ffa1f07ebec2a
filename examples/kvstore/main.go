// kvstore: the paper's replicated key-value store (§4) — Multi-Paxos
// consensus over an LSM tree whose Memtable skip list lives in
// distributed memory objects — scaled out over four shards (one Paxos
// group per shard, routed by consistent hashing) on six SmartNIC
// replicas, and driven with the §5.1 workload: 1M keys, Zipf 0.99,
// 95% reads / 5% writes, with same-shard requests coalesced into
// message trains (insight I6).
package main

import (
	"fmt"

	ipipe "repro"
	"repro/internal/workload"
)

func main() {
	cl := ipipe.NewCluster(42)
	var nodes []*ipipe.Node
	for i := 0; i < 6; i++ {
		nodes = append(nodes, cl.AddNode(ipipe.NodeConfig{
			Name: fmt.Sprintf("kv%d", i),
			NIC:  ipipe.LiquidIOII_CN2350(),
		}))
	}

	// Deploy 4 shards × 3 replicas rotated over the 6 nodes, with a
	// 16KB Memtable so minor compactions happen during the short demo;
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
}
