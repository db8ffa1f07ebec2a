// Command ipipe-sim runs an ad-hoc iPipe cluster simulation: pick an
// application, a SmartNIC model (or none for the DPDK baseline), and a
// load, and it reports throughput, latency percentiles, host CPU usage,
// and runtime events (migrations, downgrades).
//
// Usage examples:
//
//	ipipe-sim -app rkv -nic cn2350 -duration 50ms -depth 16
//	ipipe-sim -app dt -nic none -size 1024
//	ipipe-sim -app rta -nic stingray -depth 0 -rate 500000
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
//
// A flag the chosen run does not read is an error: -rate without
// -depth 0, -queue with -nic none, -shards on any app but rkv, the mesh
// flags on an app, and -nic, -queue, -loss, -batch, -rate and -shards
// on the mesh.
//
// Every app runs the same way: -trace, -metrics and -check attach to
// the cluster right after it is constructed, and after the run one tail
// writes the artifacts and audits the checkers, printing
// "invariants: N checks, M violations" to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/actor"
	"repro/internal/apps/dt"
	"repro/internal/apps/nf"
	"repro/internal/apps/rkv"
	"repro/internal/apps/rta"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/invariant"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "ipipe-sim: %v\n", err)
		os.Exit(1)
	}
}

// options is one invocation's flags.
type options struct {
	app, nic, queue        string
	dur, metricsInterval   time.Duration
	depth, size            int
	shards, batch          int
	rate, loss             float64
	seed                   uint64
	traceFile, metricsFile string
	check                  bool
	nodes, partitions      int
	pdes                   int
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("ipipe-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.app, "app", "rkv", "application: rkv | dt | rta | nf | echo | mesh")
	fs.StringVar(&o.nic, "nic", "cn2350", "SmartNIC: cn2350 | cn2360 | bluefield | stingray | none (DPDK baseline)")
	fs.DurationVar(&o.dur, "duration", 50*time.Millisecond, "virtual run duration")
	fs.IntVar(&o.depth, "depth", 16, "closed-loop outstanding requests (0 = use -rate)")
	fs.Float64Var(&o.rate, "rate", 100000, "open-loop request rate (req/s) when -depth 0")
	fs.IntVar(&o.size, "size", 512, "request packet size (B)")
	fs.IntVar(&o.shards, "shards", 1, "RKV shard count: one Paxos group per shard over the node pool (rkv only)")
	fs.IntVar(&o.batch, "batch", 1, "coalesce up to this many same-destination requests into one message train")
	fs.Uint64Var(&o.seed, "seed", 1, "simulation seed")
	fs.Float64Var(&o.loss, "loss", 0, "injected network packet loss rate [0,1)")
	fs.StringVar(&o.queue, "queue", "auto", "NIC ingress model: auto | shared | shuffle | iokernel")
	fs.StringVar(&o.traceFile, "trace", "", "write a Chrome trace_event JSON file (chrome://tracing, Perfetto)")
	fs.StringVar(&o.metricsFile, "metrics", "", "write NDJSON metric snapshots to `file`")
	fs.DurationVar(&o.metricsInterval, "metrics-interval", 100*time.Microsecond, "metric snapshot interval (virtual time)")
	fs.BoolVar(&o.check, "check", false, "audit runtime invariants during the run; exit 1 on any violation")
	fs.IntVar(&o.nodes, "nodes", 64, "server node count (mesh only)")
	fs.IntVar(&o.partitions, "partitions", 0, "engine partition count, 0 = min(8, nodes) (mesh only)")
	fs.IntVar(&o.pdes, "pdes", 1, "goroutines executing partition windows (mesh only; results identical at any count)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if why := o.unread(f.Name); why != "" && err == nil {
			err = fmt.Errorf("-%s is not read by this run: %s", f.Name, why)
		}
	})
	if err != nil {
		return nil, err
	}
	return o, o.validate()
}

// unread says why the run o describes ignores flag name, or "" when it
// reads it.
func (o *options) unread(name string) string {
	const meshFixed = "the mesh always runs CN2350 nodes on their own ingress, closed-loop, lossless and unbatched"
	mesh := o.app == "mesh"
	switch name {
	case "nodes", "partitions", "pdes":
		if !mesh {
			return "only -app mesh reads it"
		}
	case "nic", "loss", "batch":
		if mesh {
			return meshFixed
		}
	case "shards":
		if o.app != "rkv" {
			return "only -app rkv reads it"
		}
	case "queue":
		if mesh {
			return meshFixed
		}
		if nic, ok := nicByFlag(o.nic); ok && nic == nil {
			return "-nic none has no NIC scheduler"
		}
	case "rate":
		if mesh {
			return meshFixed
		}
		if o.depth != 0 {
			return "only the open loop of -depth 0 reads it"
		}
	case "metrics-interval":
		if o.metricsFile == "" {
			return "only -metrics reads it"
		}
	}
	return ""
}

// validate rejects every bad flag before anything is built.
func (o *options) validate() error {
	if _, ok := apps[o.app]; !ok && o.app != "mesh" {
		return fmt.Errorf("unknown app %q", o.app)
	}
	if _, ok := nicByFlag(o.nic); !ok {
		return fmt.Errorf("unknown NIC %q", o.nic)
	}
	if _, ok := ingress[o.queue]; !ok && o.queue != "auto" {
		return fmt.Errorf("unknown queue model %q", o.queue)
	}
	if o.dur <= 0 {
		return fmt.Errorf("-duration must be positive, got %v", o.dur)
	}
	if o.size < 0 || o.depth < 0 {
		return fmt.Errorf("-size and -depth must not be negative, got %d and %d", o.size, o.depth)
	}
	if o.rate <= 0 {
		return fmt.Errorf("-rate must be positive, got %g", o.rate)
	}
	if o.loss < 0 || o.loss >= 1 {
		return fmt.Errorf("-loss must be in [0,1), got %g", o.loss)
	}
	if o.batch < 0 || o.shards < 0 {
		return fmt.Errorf("-batch and -shards must not be negative, got %d and %d", o.batch, o.shards)
	}
	if o.metricsFile != "" && o.metricsInterval <= 0 {
		return fmt.Errorf("-metrics-interval must be positive, got %v", o.metricsInterval)
	}
	if o.app != "mesh" {
		return nil
	}
	if o.nodes < 2 || o.depth < 1 || o.partitions < 0 || o.pdes < 1 {
		return fmt.Errorf("mesh needs -nodes >= 2, -depth >= 1, -partitions >= 0 and -pdes >= 1, got %d, %d, %d and %d",
			o.nodes, o.depth, o.partitions, o.pdes)
	}
	return nil
}

// run is the whole command: it validates args, runs one simulation and
// writes the report (and any artifact named "-") to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}
	ob := &observer{o: o}
	if o.app == "mesh" {
		runMesh(o, ob.attach, stdout)
	} else if err := runApp(o, ob.attach, stdout); err != nil {
		return err
	}
	return ob.finish(stdout, stderr)
}

// observer is the one place a run's tracer, collector and checkers are
// made and audited, whichever app built the cluster.
type observer struct {
	o      *options
	tracer *obs.Tracer
	col    *obs.Collector
	chks   []*invariant.Checker
}

// attach wires -trace, -metrics and -check into the run's cluster right
// after construction, before any node exists.
func (ob *observer) attach(c *core.Cluster) {
	if ob.o.traceFile != "" {
		ob.tracer = obs.NewTracer()
		c.EnableTracing(ob.tracer)
	}
	if ob.o.metricsFile != "" {
		ob.col = obs.NewCollector(c.Eng, sim.Time(ob.o.metricsInterval.Nanoseconds()))
		c.EnableMetrics(ob.col)
		ob.col.Start()
	}
	if ob.o.check {
		ob.chks = c.AttachCheckers()
	}
}

// finish writes the artifacts and audits the checkers once the run is
// over; any violation is an error.
func (ob *observer) finish(stdout, stderr io.Writer) error {
	o := ob.o
	if ob.tracer != nil {
		if err := obs.WriteArtifact(o.traceFile, stdout, ob.tracer.WriteChromeTrace); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(stderr, "trace: %d spans on %d tracks -> %s\n", ob.tracer.Spans(), ob.tracer.Tracks(), o.traceFile)
	}
	if ob.col != nil {
		ob.col.Snapshot() // end-state record
		if err := obs.WriteArtifact(o.metricsFile, stdout, ob.col.WriteNDJSON); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		fmt.Fprintf(stderr, "metrics: %d snapshots -> %s\n", ob.col.Snapshots(), o.metricsFile)
	}
	if !o.check {
		return nil
	}
	checks, violations, err := invariant.Close(ob.chks)
	fmt.Fprintf(stderr, "invariants: %d checks, %d violations\n", checks, len(violations))
	return err
}

// runMesh drives the PDES scale-out topology and reports.
func runMesh(o *options, observe func(*core.Cluster), stdout io.Writer) {
	s := mesh.Run(mesh.Config{
		Nodes:      o.nodes,
		Partitions: o.partitions,
		Workers:    o.pdes,
		Seed:       o.seed,
		Depth:      o.depth,
		ReqSize:    o.size,
		Window:     sim.Time(o.dur.Nanoseconds()),
		Observe:    observe,
	})
	fmt.Fprintf(stdout, "app=mesh nodes=%d partitions=%d workers=%d window=%v\n",
		s.Nodes, s.Partitions, s.Workers, o.dur)
	fmt.Fprintf(stdout, "throughput: %.1f kops/s (%d of %d answered)\n", s.TputKops, s.Ops, s.Sent)
	fmt.Fprintf(stdout, "latency: p50=%.2fus p99=%.2fus\n", s.P50us, s.P99us)
	fmt.Fprintf(stdout, "engine: %d events, %d cross-partition handoffs, %d sync windows, wall %v\n",
		s.Events, s.Crossed, s.Rounds, s.Wall)
}

// runApp deploys one application on a classic cluster, drives it for
// the window and reports.
func runApp(o *options, observe func(*core.Cluster), stdout io.Writer) error {
	nic, _ := nicByFlag(o.nic)
	cl := core.NewCluster(o.seed)
	cl.Net.LossRate = o.loss
	observe(cl)

	b := &builder{o: o, cl: cl, nic: nic,
		common: deploy.Common{Placement: deploy.Placement{OnNIC: nic != nil}}}
	nodes, gen, err := apps[o.app](b)
	if err != nil {
		return err
	}
	c := workload.NewClient(cl, "cli", linkOf(nic))
	send := c.Send
	if o.batch > 1 {
		send = workload.NewBatcher(c, 0, o.batch).Add
	}
	window := sim.Time(o.dur.Nanoseconds())
	if o.depth > 0 {
		c.ClosedLoopVia(o.depth, window, gen, send)
	} else {
		c.OpenLoopVia(o.rate, window, gen, send)
	}
	cl.Eng.Run()

	mode := "iPipe"
	if nic == nil {
		mode = "DPDK baseline"
	}
	fmt.Fprintf(stdout, "app=%s mode=%s size=%dB window=%v\n", o.app, mode, o.size, o.dur)
	fmt.Fprintf(stdout, "throughput: %.0f req/s (%d of %d answered)\n",
		float64(c.Received)/window.Seconds(), c.Received, c.Sent)
	fmt.Fprintf(stdout, "latency: p50=%.2fus p99=%.2fus\n", c.Lat.Percentile(50), c.Lat.Percentile(99))
	for _, n := range nodes {
		line := fmt.Sprintf("node %-8s host-cores=%.2f", n.Name, n.HostCoresUsed())
		if n.Offloaded() {
			f, d := n.Sched.CoreModes()
			line += fmt.Sprintf("  nic[fcfs=%d drr=%d exec=%d fwd=%d down=%d up=%d push=%d pull=%d]",
				f, d, n.Sched.Completed, n.Sched.Forwarded,
				n.Sched.Downgrades, n.Sched.Upgrades, n.Sched.PushMigrations, n.Sched.PullMigrations)
		}
		fmt.Fprintln(stdout, line)
	}
	return nil
}

// builder carries what every app needs to stand itself up.
type builder struct {
	o      *options
	cl     *core.Cluster
	nic    *spec.NICModel
	common deploy.Common
}

// ingress maps the -queue values other than "auto" (the card's own
// ingress) to the scheduler's ingress models.
var ingress = map[string]sched.Ingress{
	"shared":   sched.SharedQueue,
	"shuffle":  sched.ShuffleLayer,
	"iokernel": sched.IOKernel,
}

// node adds a server with the -nic card and the -queue ingress model.
func (b *builder) node(name string) *core.Node {
	cfg := core.Config{Name: name, NIC: b.nic, LinkGbps: linkOf(b.nic)}
	if q, ok := ingress[b.o.queue]; ok && b.nic != nil {
		sc := core.SchedConfig(b.nic)
		sc.Ingress = q
		cfg.SchedOverride = &sc
	}
	return b.cl.AddNode(cfg)
}

// generator makes the i-th request of a run.
type generator func(uint64) workload.Request

// apps is one entry per application: each adds its nodes, deploys its
// spec (the echo app registers a raw actor), and returns the nodes and
// its request generator.
var apps = map[string]func(*builder) ([]*core.Node, generator, error){
	"rkv":  (*builder).rkv,
	"dt":   (*builder).dt,
	"rta":  (*builder).rta,
	"nf":   (*builder).nf,
	"echo": (*builder).echo,
}

func (b *builder) rkv() ([]*core.Node, generator, error) {
	var nodes []*core.Node
	for i := 0; i < max(3, b.o.shards); i++ {
		nodes = append(nodes, b.node(fmt.Sprintf("kv%d", i)))
	}
	d, err := deploy.RKVSpec{Common: b.common, Nodes: nodes, BaseID: 100, MemLimit: 4 << 20, Shards: b.o.shards}.Deploy()
	if err != nil {
		return nil, nil, err
	}
	z := workload.NewZipf(b.cl.Eng.Rand(), 1_000_000, 0.99)
	return nodes, func(i uint64) workload.Request {
		key := []byte(fmt.Sprintf("k%07d", z.Next()))
		data := rkv.GetReq(key)
		if i%20 == 0 {
			data = rkv.PutReq(key, make([]byte, b.o.size/4))
		}
		node, leader := d.LeaderFor(key)
		return workload.Request{Node: node, Dst: leader, Kind: rkv.KindReq, Data: data, Size: b.o.size, FlowID: i}
	}, nil
}

func (b *builder) dt() ([]*core.Node, generator, error) {
	coord, p1, p2 := b.node("coord"), b.node("part1"), b.node("part2")
	s := deploy.DTSpec{Common: b.common, Coordinator: coord, Participants: []*core.Node{p1, p2}, BaseID: 100}
	if _, err := s.Deploy(); err != nil {
		return nil, nil, err
	}
	return []*core.Node{coord, p1, p2}, func(i uint64) workload.Request {
		txn := dt.Txn{
			Reads: []dt.Op{
				{Key: []byte(fmt.Sprintf("r%d", i%512))},
				{Key: []byte(fmt.Sprintf("r%d", (i+7)%512))},
			},
			Writes: []dt.Op{{Key: []byte(fmt.Sprintf("w%d", i%256)), Value: make([]byte, b.o.size/4)}},
		}
		return workload.Request{Node: "coord", Dst: 100, Kind: dt.KindTxn,
			Data: dt.EncodeTxn(txn), Size: b.o.size, FlowID: i}
	}, nil
}

func (b *builder) rta() ([]*core.Node, generator, error) {
	n := b.node("worker")
	d, err := deploy.RTASpec{Common: b.common, Node: n, Aggregator: n, BaseID: 100,
		Discard: []string{"spam"}, TopN: 10}.Deploy()
	if err != nil {
		return nil, nil, err
	}
	filter := d.Topology.Filter
	words := []string{"alpha", "beta", "gamma", "delta", "spam", "zeta"}
	return []*core.Node{n}, func(i uint64) workload.Request {
		tuples := make([]string, max(1, b.o.size/32))
		for j := range tuples {
			tuples[j] = words[(int(i)+j)%len(words)]
		}
		return workload.Request{Node: "worker", Dst: filter, Kind: rta.KindTuples,
			Data: rta.EncodeTuples(tuples), Size: b.o.size, FlowID: i}
	}, nil
}

func (b *builder) nf() ([]*core.Node, generator, error) {
	n := b.node("gw")
	s := deploy.FirewallSpec{Common: b.common, Node: n, ID: 100, Rules: nf.UniformRules(8192)}
	if _, err := s.Deploy(); err != nil {
		return nil, nil, err
	}
	return []*core.Node{n}, func(i uint64) workload.Request {
		t := nf.FiveTuple{SrcIP: uint32(i) << 13, DstPort: 80, Proto: 6}
		return workload.Request{Node: "gw", Dst: 100, Data: t.Encode(), Size: b.o.size, FlowID: i}
	}, nil
}

func (b *builder) echo() ([]*core.Node, generator, error) {
	n := b.node("srv")
	echo := &actor.Actor{ID: 100, Name: "echo",
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			ctx.Reply(m)
			return 2 * sim.Microsecond
		}}
	if err := n.Register(echo, b.nic != nil, 0); err != nil {
		return nil, nil, err
	}
	return []*core.Node{n}, func(i uint64) workload.Request {
		return workload.Request{Node: "srv", Dst: 100, Size: b.o.size, FlowID: i}
	}, nil
}

func nicByFlag(name string) (*spec.NICModel, bool) {
	switch strings.ToLower(name) {
	case "none", "dpdk", "":
		return nil, true
	case "cn2350", "liquidio10":
		return spec.LiquidIOII_CN2350(), true
	case "cn2360", "liquidio25":
		return spec.LiquidIOII_CN2360(), true
	case "bluefield":
		return spec.BlueField_1M332A(), true
	case "stingray":
		return spec.Stingray_PS225(), true
	}
	return nil, false
}

func linkOf(nic *spec.NICModel) float64 {
	if nic == nil {
		return 10
	}
	return nic.LinkGbps
}
