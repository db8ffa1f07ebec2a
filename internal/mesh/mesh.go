// Package mesh builds the datacenter-scale topologies the PDES engine
// exists for: N SmartNIC-equipped server nodes behind one switch, each
// paired with a closed-loop client, all clients issuing small RPCs to
// Zipf-chosen servers. It is the "millions of users hitting a few hot
// nodes" shape of the paper's RKV evaluation blown up past the 8-node
// testbed — the workload is deliberately simple (echo-style RPC with a
// fixed NIC-side service cost) so the experiment measures the engine
// and the fabric, not an application.
//
// Every node (its NIC, host, PCIe and link models) and its client live
// on one engine partition; only the switch hop crosses partitions.
// Results are deterministic for a fixed (seed, nodes, partitions)
// triple regardless of worker count.
//
// Observability and checking: set Config.Observe; it sees the cluster
// right after construction, before any node exists, and attaches the
// tracer, the collector or the checkers (core.Cluster.AttachCheckers)
// there; the caller keeps what it attached and reads it after the run.
// The partitioned cluster shards the tracer per partition and samples
// metrics at window boundaries, so enabling observability changes
// neither the results nor their worker-count independence (the exported
// artifacts are themselves byte-identical at any worker count).
package mesh

import (
	"fmt"
	"time"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/workload"
)

// theta is the Zipf skew over destination servers: the paper's RKV
// skew.
const theta = 0.99

// Config sizes one mesh run.
type Config struct {
	// Nodes is the server count (≥ 2).
	Nodes int
	// Partitions shards the topology across this many engines (default
	// min(8, Nodes)). 1 is the classic serial engine.
	Partitions int
	// Workers bounds the goroutines executing partitions (≤ 1 = serial
	// merge; results are identical either way).
	Workers int
	Seed    uint64
	// Depth is each client's closed-loop outstanding-request window
	// (default 2).
	Depth int
	// ReqSize is the request wire size in bytes (default 256).
	ReqSize int
	// ServiceNs is the actor's modeled execution cost per request on
	// the reference NIC core (default 1500ns — an RKV-like GET).
	ServiceNs int
	// Window is the measured run length (default 2ms).
	Window sim.Time
	// Observe, when set, is applied to the cluster right after it is
	// constructed, before any node is added.
	Observe func(*core.Cluster)
	// Migratable leaves the actors unpinned with the §3.2.5 migration
	// hooks wired, and gives each a 256KB DMO object so the phase-3
	// object move has real bytes to charge. Default: NIC-pinned actors,
	// migration off.
	Migratable bool
}

// Stats is one run's deterministic outcome plus its wall-clock cost.
// Ops/latency/Events depend only on (Seed, Nodes, Partitions, workload
// shape); Wall is the only field that varies run to run.
type Stats struct {
	Nodes      int
	Partitions int
	Workers    int
	Ops        uint64  // responses received across all clients
	Sent       uint64  // requests issued
	TputKops   float64 // Ops per simulated second, in thousands
	P50us      float64
	P99us      float64
	Events     uint64 // engine events executed
	Crossed    uint64 // cross-partition handoffs
	Rounds     uint64 // synchronization windows (0 when Partitions == 1)
	Wall       time.Duration
}

// defaults fills the unset fields.
func (cfg *Config) defaults() {
	if cfg.Nodes < 2 {
		cfg.Nodes = 2
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = cfg.Nodes
		if cfg.Partitions > 8 {
			cfg.Partitions = 8
		}
	}
	if cfg.Partitions > cfg.Nodes {
		cfg.Partitions = cfg.Nodes
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 2
	}
	if cfg.ReqSize <= 0 {
		cfg.ReqSize = 256
	}
	if cfg.ServiceNs <= 0 {
		cfg.ServiceNs = 1500
	}
	if cfg.Window <= 0 {
		cfg.Window = 2 * sim.Millisecond
	}
}

// Build constructs the echo mesh without driving it: cfg.Nodes CN2350
// servers spread round-robin over cfg.Partitions engine partitions,
// server i ("nNNN") running one echo actor (ID 1+i, "svcNNN", ServiceNs
// per request), plus one client per server ("cNNN") attached on the
// server's partition so its request generation parallelizes with it.
// Only the topology fields of cfg are read; the traffic is the
// caller's.
func Build(cfg Config) (*core.Cluster, []*core.Node, []*workload.Client) {
	cfg.defaults()
	cl := core.NewPartitionedCluster(cfg.Seed, cfg.Partitions)
	if cfg.Observe != nil {
		cfg.Observe(cl)
	}
	cl.SetPDESWorkers(cfg.Workers)

	serviceCost := sim.Time(cfg.ServiceNs)
	nodes := make([]*core.Node, cfg.Nodes)
	for i := range nodes {
		nodes[i] = cl.AddNode(core.Config{
			Name:             fmt.Sprintf("n%03d", i),
			NIC:              spec.LiquidIOII_CN2350(),
			DisableMigration: !cfg.Migratable,
		})
		a := &actor.Actor{
			ID:     actor.ID(1 + i),
			Name:   fmt.Sprintf("svc%03d", i),
			PinNIC: !cfg.Migratable,
			OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
				ctx.Reply(m)
				return serviceCost
			},
		}
		if cfg.Migratable {
			a.OnInit = func(ctx actor.Ctx) { ctx.Alloc(256 << 10) }
		}
		if err := nodes[i].Register(a, true, 1<<20); err != nil {
			panic(err)
		}
	}
	clients := make([]*workload.Client, cfg.Nodes)
	for i, n := range nodes {
		clients[i] = workload.NewClientAt(cl, fmt.Sprintf("c%03d", i), cl.Net.LinkGbps(n.Name), n.Part)
	}
	return cl, nodes, clients
}

// arm builds the mesh and attaches its traffic: every client drives a
// closed loop of cfg.Depth requests to Zipf-chosen servers until
// cfg.Window. Nothing has run yet when it returns.
func arm(cfg Config) (*core.Cluster, []*workload.Client) {
	cfg.defaults()
	cl, nodes, clients := Build(cfg)
	for i, c := range clients {
		zipf := workload.NewZipf(c.Eng().Rand(), uint64(cfg.Nodes), theta)
		c.ClosedLoop(cfg.Depth, cfg.Window, func(k uint64) workload.Request {
			dst := int(zipf.Next())
			if dst == i {
				dst = (dst + 1) % cfg.Nodes // never self: keep traffic on the wire
			}
			return workload.Request{
				Node:   nodes[dst].Name,
				Dst:    actor.ID(1 + dst),
				Size:   cfg.ReqSize,
				FlowID: uint64(i)<<32 | (k + 1),
			}
		})
	}
	return cl, clients
}

// Run builds the mesh, drives it closed-loop with Zipf-chosen
// destinations for the window, and reports.
func Run(cfg Config) Stats {
	cfg.defaults()
	cl, clients := arm(cfg)

	start := time.Now()
	cl.RunUntil(cfg.Window)
	wall := time.Since(start)

	sum := Summarize(clients)
	return Stats{
		Nodes:      cfg.Nodes,
		Partitions: cfg.Partitions,
		Workers:    cfg.Workers,
		Ops:        sum.Received,
		Sent:       sum.Sent,
		TputKops:   float64(sum.Received) / cfg.Window.Seconds() / 1e3,
		P50us:      sum.P50us,
		P99us:      sum.P99us,
		Events:     cl.Group.ExecutedEvents(),
		Crossed:    cl.Group.Crossed(),
		Rounds:     cl.Group.Rounds(),
		Wall:       wall,
	}
}

// Summary is the merged outcome of a run's clients.
type Summary struct {
	Sent, Received, Rejected, Retried uint64
	P50us, P99us                      float64
}

// Summarize merges the clients' counters and latency samples in slice
// order, so the percentiles are the same at any worker count.
func Summarize(clients []*workload.Client) Summary {
	var s Summary
	lat := stats.NewSample()
	for _, c := range clients {
		s.Sent += c.Sent
		s.Received += c.Received
		s.Rejected += c.Rejected
		s.Retried += c.Retried
		lat.Merge(c.Lat)
	}
	s.P50us, s.P99us = lat.Percentile(50), lat.Percentile(99)
	return s
}
