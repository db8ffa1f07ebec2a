// Command ipipe-sim runs an ad-hoc iPipe cluster simulation: pick an
// application, a SmartNIC model (or none for the DPDK baseline), and a
// load, and it reports throughput, latency percentiles, host CPU usage,
// and runtime events (migrations, downgrades).
//
// Usage examples:
//
//	ipipe-sim -app rkv -nic cn2350 -duration 50ms -depth 16
//	ipipe-sim -app dt -nic none -size 1024
//	ipipe-sim -app rta -nic stingray -rate 500000
//	ipipe-sim -app echo -nic cn2360
//	ipipe-sim -app mesh -nodes 256 -partitions 8 -pdes 4
//
// The mesh app is the scale-out topology for the parallel (PDES)
// engine: -nodes echo-RPC servers sharded across -partitions engine
// partitions, windows executed by -pdes worker goroutines. Results are
// deterministic for a fixed seed regardless of -pdes, and so are the
// -trace/-metrics artifacts: each partition traces into its own shard
// and the export merges shards deterministically, so the emitted bytes
// are identical at any -pdes worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	ipipe "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func nicByFlag(name string) (*ipipe.NICModel, bool) {
	switch strings.ToLower(name) {
	case "none", "dpdk", "":
		return nil, true
	case "cn2350", "liquidio10":
		return ipipe.LiquidIOII_CN2350(), true
	case "cn2360", "liquidio25":
		return ipipe.LiquidIOII_CN2360(), true
	case "bluefield":
		return ipipe.BlueField_1M332A(), true
	case "stingray":
		return ipipe.Stingray_PS225(), true
	}
	return nil, false
}

func main() {
	app := flag.String("app", "rkv", "application: rkv | dt | rta | nf | echo | mesh")
	nicName := flag.String("nic", "cn2350", "SmartNIC: cn2350 | cn2360 | bluefield | stingray | none (DPDK baseline)")
	dur := flag.Duration("duration", 50*time.Millisecond, "virtual run duration")
	depth := flag.Int("depth", 16, "closed-loop outstanding requests (0 = use -rate)")
	rate := flag.Float64("rate", 0, "open-loop request rate (req/s) when -depth 0")
	size := flag.Int("size", 512, "request packet size (B)")
	shards := flag.Int("shards", 1, "RKV shard count: one Paxos group per shard over the node pool (rkv only)")
	batch := flag.Int("batch", 1, "coalesce up to this many same-shard requests into one message train (rkv only)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	loss := flag.Float64("loss", 0, "injected network packet loss rate [0,1)")
	queue := flag.String("queue", "auto", "NIC ingress model: auto | shared | shuffle | iokernel")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON file (chrome://tracing, Perfetto)")
	metricsFile := flag.String("metrics", "", "write NDJSON metric snapshots to `file`")
	metricsInterval := flag.Duration("metrics-interval", 100*time.Microsecond, "metric snapshot interval (virtual time)")
	check := flag.Bool("check", false, "audit runtime invariants during the run; exit 1 on any violation")
	meshNodes := flag.Int("nodes", 64, "server node count (mesh only)")
	partitions := flag.Int("partitions", 0, "engine partition count, 0 = min(8, nodes) (mesh only)")
	pdesWorkers := flag.Int("pdes", 1, "goroutines executing partition windows (mesh only; results identical at any count)")
	flag.Parse()

	if *app == "mesh" {
		// The mesh builds its cluster internally; observability attaches
		// through Config.Observe. Partitioned tracing shards per partition
		// and metrics sample at window boundaries, so the artifacts are
		// byte-identical at any -pdes worker count.
		var meshTracer *obs.Tracer
		var meshCol *obs.Collector
		var observe func(*core.Cluster)
		if *traceFile != "" || *metricsFile != "" {
			if *traceFile != "" {
				meshTracer = obs.NewTracer()
			}
			observe = func(c *core.Cluster) {
				c.EnableTracing(meshTracer)
				if *metricsFile != "" {
					meshCol = obs.NewCollector(c.Eng, sim.Time(metricsInterval.Nanoseconds()))
					c.EnableMetrics(meshCol)
					meshCol.Start()
				}
			}
		}
		runMesh(mesh.Config{
			Nodes:      *meshNodes,
			Partitions: *partitions,
			Workers:    *pdesWorkers,
			Seed:       *seed,
			Depth:      *depth,
			ReqSize:    *size,
			Window:     ipipe.Duration(dur.Nanoseconds()),
			Check:      *check,
			Observe:    observe,
		})
		if meshTracer != nil {
			if err := writeTo(*traceFile, meshTracer.WriteChromeTrace); err != nil {
				fmt.Fprintf(os.Stderr, "ipipe-sim: trace: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "trace: %d spans on %d tracks -> %s\n",
				meshTracer.Spans(), meshTracer.Tracks(), *traceFile)
		}
		if meshCol != nil {
			meshCol.Snapshot() // end-state record
			if err := writeTo(*metricsFile, meshCol.WriteNDJSON); err != nil {
				fmt.Fprintf(os.Stderr, "ipipe-sim: metrics: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "metrics: %d snapshots -> %s\n", meshCol.Snapshots(), *metricsFile)
		}
		return
	}
	if *partitions > 1 {
		fmt.Fprintf(os.Stderr, "ipipe-sim: -partitions applies only to -app mesh (app %q runs on one engine)\n", *app)
		os.Exit(1)
	}

	nic, ok := nicByFlag(*nicName)
	if !ok {
		fmt.Fprintf(os.Stderr, "ipipe-sim: unknown NIC %q\n", *nicName)
		os.Exit(1)
	}
	offload := nic != nil
	window := ipipe.Duration(dur.Nanoseconds())

	cl := ipipe.NewCluster(*seed)
	cl.Net.LossRate = *loss

	var tracer *ipipe.Tracer
	if *traceFile != "" {
		tracer = ipipe.NewTracer()
		cl.EnableTracing(tracer)
	}
	var collector *ipipe.Collector
	if *metricsFile != "" {
		collector = ipipe.NewMetricsCollector(cl, ipipe.Duration(metricsInterval.Nanoseconds()))
		cl.EnableMetrics(collector)
	}
	var checker *ipipe.InvariantChecker
	if *check {
		checker = ipipe.NewInvariantChecker(cl)
	}
	mkNode := func(name string) *ipipe.Node {
		cfg := ipipe.NodeConfig{Name: name, NIC: nic, LinkGbps: linkOf(nic)}
		if nic != nil && *queue != "auto" {
			sc := baseline.Hybrid(nic)
			switch *queue {
			case "shared":
				sc.Shuffle = false
			case "shuffle":
				sc.Shuffle = true
			case "iokernel":
				sc.Shuffle = false
				sc.IOKernel = true
			default:
				fmt.Fprintf(os.Stderr, "ipipe-sim: unknown queue model %q\n", *queue)
				os.Exit(1)
			}
			cfg.SchedOverride = &sc
		}
		return cl.AddNode(cfg)
	}
	client := func() *ipipe.Client { return ipipe.NewClient(cl, "cli", linkOf(nic)) }

	drive := func(c *ipipe.Client, gen func(i uint64) ipipe.Request) {
		send := c.Send
		if *batch > 1 {
			send = ipipe.NewBatcher(c, 0, *batch).Add
		}
		if *depth > 0 {
			c.ClosedLoopVia(*depth, window, gen, send)
		} else {
			r := *rate
			if r <= 0 {
				r = 100000
			}
			c.OpenLoopVia(r, window, gen, send)
		}
	}

	// Each app is one table entry on the generic spec path: build returns
	// the spec (nil for the raw echo actor, which deploys no spec) and a
	// request-generator factory reading whatever it needs off the
	// deployed App. Validation and deployment below are app-agnostic —
	// the spec-API v2 replacement for the old five-arm switch.
	common := ipipe.DeployCommon{Placement: ipipe.Placement{OnNIC: offload}}
	var nodes []*ipipe.Node
	builders := map[string]func() (ipipe.DeploySpec, func(ipipe.DeployedApp) func(uint64) ipipe.Request){
		"rkv": func() (ipipe.DeploySpec, func(ipipe.DeployedApp) func(uint64) ipipe.Request) {
			nNodes := 3
			if *shards > nNodes {
				nNodes = *shards
			}
			for i := 0; i < nNodes; i++ {
				nodes = append(nodes, mkNode(fmt.Sprintf("kv%d", i)))
			}
			spc := ipipe.RKVSpec{Common: common, Nodes: nodes, BaseID: 100, MemLimit: 4 << 20, Shards: *shards}
			return spc, func(app ipipe.DeployedApp) func(uint64) ipipe.Request {
				d := app.(*ipipe.RKVApp)
				z := workload.NewZipf(cl.Eng.Rand(), 1_000_000, 0.99)
				return func(i uint64) ipipe.Request {
					key := []byte(fmt.Sprintf("k%07d", z.Next()))
					data := ipipe.RKVGet(key)
					if i%20 == 0 {
						data = ipipe.RKVPut(key, make([]byte, *size/4))
					}
					node, leader := d.LeaderFor(key)
					return ipipe.Request{Node: node, Dst: leader, Kind: ipipe.RKVKindReq,
						Data: data, Size: *size, FlowID: i}
				}
			}
		},
		"dt": func() (ipipe.DeploySpec, func(ipipe.DeployedApp) func(uint64) ipipe.Request) {
			coord := mkNode("coord")
			p1, p2 := mkNode("part1"), mkNode("part2")
			nodes = []*ipipe.Node{coord, p1, p2}
			spc := ipipe.DTSpec{Common: common, Coordinator: coord,
				Participants: []*ipipe.Node{p1, p2}, BaseID: 100}
			return spc, func(ipipe.DeployedApp) func(uint64) ipipe.Request {
				return func(i uint64) ipipe.Request {
					txn := ipipe.DTTxn{
						Reads: []ipipe.DTOp{
							{Key: []byte(fmt.Sprintf("r%d", i%512))},
							{Key: []byte(fmt.Sprintf("r%d", (i+7)%512))},
						},
						Writes: []ipipe.DTOp{{Key: []byte(fmt.Sprintf("w%d", i%256)), Value: make([]byte, *size/4)}},
					}
					return ipipe.Request{Node: "coord", Dst: 100, Kind: ipipe.DTKindTxn,
						Data: ipipe.DTEncodeTxn(txn), Size: *size, FlowID: i}
				}
			}
		},
		"rta": func() (ipipe.DeploySpec, func(ipipe.DeployedApp) func(uint64) ipipe.Request) {
			n := mkNode("worker")
			nodes = []*ipipe.Node{n}
			spc := ipipe.RTASpec{Common: common, Node: n, Aggregator: n, BaseID: 100,
				Discard: []string{"spam"}, TopN: 10}
			return spc, func(app ipipe.DeployedApp) func(uint64) ipipe.Request {
				topo := app.(*ipipe.RTAApp).Topology
				words := []string{"alpha", "beta", "gamma", "delta", "spam", "zeta"}
				return func(i uint64) ipipe.Request {
					batch := *size / 32
					if batch < 1 {
						batch = 1
					}
					tuples := make([]string, batch)
					for j := range tuples {
						tuples[j] = words[(int(i)+j)%len(words)]
					}
					return ipipe.Request{Node: "worker", Dst: topo.Filter, Kind: ipipe.RTAKindTuples,
						Data: ipipe.RTAEncodeTuples(tuples), Size: *size, FlowID: i}
				}
			}
		},
		"nf": func() (ipipe.DeploySpec, func(ipipe.DeployedApp) func(uint64) ipipe.Request) {
			n := mkNode("gw")
			nodes = []*ipipe.Node{n}
			spc := ipipe.FirewallSpec{Common: common, Node: n, ID: 100,
				Rules: ipipe.UniformFirewallRules(8192)}
			return spc, func(ipipe.DeployedApp) func(uint64) ipipe.Request {
				return func(i uint64) ipipe.Request {
					t := ipipe.FiveTuple{SrcIP: uint32(i) << 13, DstPort: 80, Proto: 6}
					return ipipe.Request{Node: "gw", Dst: 100, Data: t.Encode(), Size: *size, FlowID: i}
				}
			}
		},
		"echo": func() (ipipe.DeploySpec, func(ipipe.DeployedApp) func(uint64) ipipe.Request) {
			n := mkNode("srv")
			nodes = []*ipipe.Node{n}
			echo := &ipipe.Actor{ID: 100, Name: "echo",
				OnMessage: func(ctx ipipe.Ctx, m ipipe.Msg) ipipe.Duration {
					ctx.Reply(m)
					return 2 * ipipe.Microsecond
				}}
			if err := n.Register(echo, offload, 0); err != nil {
				panic(err)
			}
			return nil, func(ipipe.DeployedApp) func(uint64) ipipe.Request {
				return func(i uint64) ipipe.Request {
					return ipipe.Request{Node: "srv", Dst: 100, Size: *size, FlowID: i}
				}
			}
		},
	}
	build, ok := builders[*app]
	if !ok {
		fmt.Fprintf(os.Stderr, "ipipe-sim: unknown app %q\n", *app)
		os.Exit(1)
	}
	spc, mkGen := build()
	var deployed ipipe.DeployedApp
	if spc != nil {
		if err := spc.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "ipipe-sim: %v\n", err)
			os.Exit(1)
		}
		var err error
		if deployed, err = spc.DeployApp(); err != nil {
			fmt.Fprintf(os.Stderr, "ipipe-sim: %v\n", err)
			os.Exit(1)
		}
	}
	c := client()
	drive(c, mkGen(deployed))

	if collector != nil {
		collector.Start()
	}
	cl.Eng.Run()
	if collector != nil {
		collector.Snapshot() // end-state record
	}
	if checker != nil {
		checker.Finish()
		fmt.Fprintln(os.Stderr, checker.Summary())
		if err := checker.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "ipipe-sim: %v\n", err)
			os.Exit(1)
		}
	}

	if tracer != nil {
		if err := writeTo(*traceFile, tracer.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "ipipe-sim: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans on %d tracks -> %s\n",
			tracer.Spans(), tracer.Tracks(), *traceFile)
	}
	if collector != nil {
		if err := writeTo(*metricsFile, collector.WriteNDJSON); err != nil {
			fmt.Fprintf(os.Stderr, "ipipe-sim: metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics: %d snapshots -> %s\n", collector.Snapshots(), *metricsFile)
	}

	mode := "iPipe"
	if !offload {
		mode = "DPDK baseline"
	}
	el := window.Seconds()
	fmt.Printf("app=%s mode=%s size=%dB window=%v\n", *app, mode, *size, *dur)
	fmt.Printf("throughput: %.0f req/s (%d of %d answered)\n",
		float64(c.Received)/el, c.Received, c.Sent)
	fmt.Printf("latency: p50=%.2fus p99=%.2fus\n", c.Lat.Percentile(50), c.Lat.Percentile(99))
	for _, n := range nodes {
		line := fmt.Sprintf("node %-8s host-cores=%.2f", n.Name, n.HostCoresUsed())
		if n.Offloaded() {
			f, d := n.Sched.CoreModes()
			line += fmt.Sprintf("  nic[fcfs=%d drr=%d exec=%d fwd=%d down=%d up=%d push=%d pull=%d]",
				f, d, n.Sched.Completed, n.Sched.Forwarded,
				n.Sched.Downgrades, n.Sched.Upgrades, n.Sched.PushMigrations, n.Sched.PullMigrations)
		}
		fmt.Println(line)
	}
}

// runMesh drives the PDES scale-out topology and reports.
func runMesh(cfg mesh.Config) {
	s := mesh.Run(cfg)
	fmt.Printf("app=mesh nodes=%d partitions=%d workers=%d window=%v\n",
		s.Nodes, s.Partitions, cfg.Workers, cfg.Window)
	fmt.Printf("throughput: %.1f kops/s (%d of %d answered)\n", s.TputKops, s.Ops, s.Sent)
	fmt.Printf("latency: p50=%.2fus p99=%.2fus\n", s.P50us, s.P99us)
	fmt.Printf("engine: %d events, %d cross-partition handoffs, %d sync windows, wall %v\n",
		s.Events, s.Crossed, s.Rounds, s.Wall)
	if cfg.Check {
		if s.Violations > 0 {
			fmt.Fprintf(os.Stderr, "ipipe-sim: %d partition ledgers reported violations\n", s.Violations)
			os.Exit(1)
		}
		fmt.Printf("invariants: %d partition ledgers clean\n", s.Partitions)
	}
}

func linkOf(nic *ipipe.NICModel) float64 {
	if nic == nil {
		return 10
	}
	return nic.LinkGbps
}

// writeTo writes an exporter's output to a file ("-" for stdout).
func writeTo(path string, write func(w io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
