// isolation: §3.4's protection story. Multiple tenants' actors share
// one SmartNIC; one tries to read another's state (trapped by the DMO
// region guard) and one spins forever (killed by the per-core timeout
// watchdog) — while the well-behaved tenant keeps its availability.
package main

import (
	"fmt"

	ipipe "repro"
)

func main() {
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
}
