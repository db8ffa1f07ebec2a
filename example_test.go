package ipipe_test

import (
	"fmt"

	ipipe "repro"
)

// Example deploys an echo actor on a SmartNIC and measures one request —
// the smallest complete iPipe program.
func Example() {
	cl := ipipe.NewCluster(1)
	node := cl.AddNode(ipipe.NodeConfig{Name: "srv", NIC: ipipe.LiquidIOII_CN2350()})
	echo := &ipipe.Actor{
		ID: 1,
		OnMessage: func(ctx ipipe.Ctx, m ipipe.Msg) ipipe.Duration {
			ctx.Reply(m)
			return 2 * ipipe.Microsecond
		},
	}
	if err := node.Register(echo, true, 0); err != nil {
		panic(err)
	}
	client := ipipe.NewClient(cl, "cli", 10)
	client.Send(ipipe.Request{Node: "srv", Dst: 1, Size: 512})
	cl.Eng.Run()
	fmt.Printf("answered=%d host-cores=%.1f\n", client.Received, node.HostCoresUsed())
	// Output:
	// answered=1 host-cores=0.0
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
