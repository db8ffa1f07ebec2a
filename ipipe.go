// Package ipipe is a framework for offloading distributed applications
// onto Multicore SoC SmartNICs, reproducing "Offloading Distributed
// Applications onto SmartNICs using iPipe" (SIGCOMM 2019) as a
// simulation-backed Go library.
//
// Applications are written as actors: computation agents with private
// state (held in distributed memory objects) that react to messages.
// The iPipe runtime schedules actor executions across the SmartNIC's
// wimpy cores and the host's beefy ones with a hybrid FCFS+DRR
// scheduler, migrating actors dynamically as traffic changes.
//
// Since the original system is firmware on LiquidIOII/BlueField/
// Stingray hardware, this library runs every component — NIC cores,
// DMA engines, links, hosts — on a deterministic discrete-event
// simulator whose parameters come from the paper's own hardware
// characterization (§2). The functional logic (Multi-Paxos, LSM trees,
// OCC transactions, analytics operators, TCAM firewalls, IPSec) is
// real, executable Go.
//
// Quick start:
//
//	cl := ipipe.NewCluster(1)
//	node := cl.AddNode(ipipe.NodeConfig{Name: "srv", NIC: ipipe.LiquidIOII_CN2350()})
//	echo := &ipipe.Actor{
//		ID: 1,
//		OnMessage: func(ctx ipipe.Ctx, m ipipe.Msg) ipipe.Duration {
//			ctx.Reply(m)
//			return 2 * ipipe.Microsecond
//		},
//	}
//	node.Register(echo, true /* on the NIC */, 0)
//	client := ipipe.NewClient(cl, "cli", 10)
//	client.Send(ipipe.Request{Node: "srv", Dst: 1, Size: 512})
//	cl.Eng.Run()
package ipipe

import (
	"repro/internal/actor"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// Core framework types, re-exported from the internal packages so user
// code (and the bundled examples) needs only this import.
type (
	// Cluster is a deployment: engine, network, actor table, nodes.
	Cluster = core.Cluster
	// Node is one server (host + optional SmartNIC).
	Node = core.Node
	// NodeConfig configures a node at creation.
	NodeConfig = core.Config
	// Actor is the unit of offloading.
	Actor = actor.Actor
	// Msg is an asynchronous actor message.
	Msg = actor.Msg
	// Ctx is the capability surface handed to actor handlers. It is
	// valid only for the handler call it is passed to, and so is what
	// ObjRead returns: a view of the object, not a copy — copy whatever
	// must outlive the handler (see actor.Ctx).
	Ctx = actor.Ctx
	// Duration is virtual time (nanoseconds).
	Duration = sim.Time
	// Client is a load generator attached to the simulated network.
	Client = workload.Client
	// Request is one client request. With Timeout <= 0 its bookkeeping
	// record is recycled at the reply; a server answers it once.
	Request = workload.Request
	// Batcher coalesces same-destination requests into message trains
	// (the paper's I6 insight); drive it via Client.ClosedLoopVia /
	// OpenLoopVia with Batcher.Add as the send path.
	Batcher = workload.Batcher
)

// Virtual-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewCluster creates an empty deployment with a deterministic seed.
func NewCluster(seed uint64) *Cluster { return core.NewCluster(seed) }

// NewClient attaches a load generator to the cluster's network.
func NewClient(c *Cluster, name string, gbps float64) *Client {
	return workload.NewClient(c, name, gbps)
}

// NewBatcher wraps a client with request batching: requests staged via
// Add that share a destination within the window leave as one message
// train. window <= 0 uses the default (2µs); maxBatch <= 1 disables
// coalescing (Add degenerates to Client.Send).
func NewBatcher(c *Client, window Duration, maxBatch int) *Batcher {
	return workload.NewBatcher(c, window, maxBatch)
}

// The four characterized SmartNIC models (Table 1).
var (
	LiquidIOII_CN2350 = spec.LiquidIOII_CN2350
	LiquidIOII_CN2360 = spec.LiquidIOII_CN2360
	BlueField_1M332A  = spec.BlueField_1M332A
	Stingray_PS225    = spec.Stingray_PS225
)

// Experiment runs one of the paper's tables/figures by id (ipipe-bench
// with no arguments lists them) and returns its rendered result.
func Experiment(id string, quick bool, seed uint64) (*bench.Result, error) {
	return bench.Run(id, bench.Options{Quick: quick, Seed: seed})
}
