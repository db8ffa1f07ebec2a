// The scale-* family measures the sharded RKV scale-out: aggregate
// throughput and tail latency as the key space spreads over independent
// Paxos groups (consistent-hash router), and the effect of client-side
// request batching (message trains amortizing per-packet cost, I6).
package bench

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/apps/rkv"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("scale-shards", "Sharded RKV scale-out: aggregate throughput and p99 vs shards x skew", scaleShards)
	register("scale-batch", "Client batching: sharded RKV throughput and latency vs train size", scaleBatch)
}

// scaleRun is one sharded deployment measurement.
type scaleRun struct {
	appRun
	// Balance is max/mean of the per-shard completions.
	Balance float64
	// Trains/Coalesced mirror the batcher counters.
	Trains    uint64
	Coalesced uint64
}

// warmKeys hot Zipf ranks are written before the measurement window, so
// reads of the skewed head hit the NIC-resident Memtable rather than
// all falling through to the host SSTable path. Skew then works FOR the
// sharded deployment: the hottest shard serves the cheapest requests.
const warmKeys = 2048

// warmDepth paces warmup writes closed-loop so a single-shard leader is
// never driven past its write capacity; warmupBudget bounds the run in
// case warmup stalls (idle virtual time costs nothing to simulate).
const (
	warmDepth    = 16
	warmupBudget = 40 * sim.Millisecond
)

// runScale deploys RKV over an 8-node pool with the given shard count
// (3 replicas per group, leaders rotated), pre-warms the hot keys, then
// drives a closed loop of router-directed Zipf keys (95% reads) for
// `window` and reports aggregate throughput plus per-shard balance.
// batch > 1 coalesces same-leader requests into message trains within a
// 2µs window. onNIC offloads to CN2350 cards; false runs the host DPDK
// baseline, where trains amortize the per-packet receive cost.
func runScale(opts Options, shards, batch, depth int, theta float64, window sim.Time, onNIC bool) scaleRun {
	const nNodes = 8
	cl := opts.cluster()
	var nodes []*core.Node
	for i := 0; i < nNodes; i++ {
		cfg := core.Config{Name: fmt.Sprintf("s%d", i), LinkGbps: 10}
		if onNIC {
			cfg.NIC = spec.LiquidIOII_CN2350()
		}
		nodes = append(nodes, cl.AddNode(cfg))
	}
	placement := deploy.Host
	if onNIC {
		placement = deploy.NIC
	}
	d, err := deploy.RKVSpec{
		Common: deploy.Common{
			Placement: placement,
			Failover:  deploy.FailoverPolicy{Disabled: true},
		},
		Nodes: nodes, BaseID: 1000, MemLimit: 8 << 20,
		Shards: shards, Replicas: 3,
		// 512 vnodes keep ring imbalance ≈3%, so the sweep measures the
		// workload's skew, not the router's.
		ShardVNodes: 512,
	}.Deploy()
	if err != nil {
		panic(err)
	}
	// The single client aggregates all shards' traffic; give it headroom
	// so the shared edge link never becomes the scaling bottleneck.
	client := workload.NewClient(cl, "cli", 100)
	b := workload.NewBatcher(client, 2*sim.Microsecond, batch)
	z := workload.NewZipf(cl.Eng.Rand(), 1_000_000, theta)
	req := func(key []byte, data []byte, flow uint64, onResp func(actor.Msg)) workload.Request {
		node, leader := d.LeaderFor(key)
		return workload.Request{
			Node: node, Dst: leader, Kind: rkv.KindReq,
			Data: data, Size: 256, FlowID: flow, OnResp: onResp,
		}
	}
	perShard := make([]uint64, shards)
	measure := func() {
		client.Lat = stats.NewSample() // measure the steady window only
		client.ClosedLoopVia(depth*shards, window, func(i uint64) workload.Request {
			key := []byte(fmt.Sprintf("k%07d", z.Next()))
			sh := d.ShardFor(key)
			// 95% reads, 5% writes (§5.1).
			data := rkv.GetReq(key)
			if i%20 == 0 {
				data = rkv.PutReq(key, make([]byte, 128))
			}
			return req(key, data, i, func(actor.Msg) { perShard[sh]++ })
		}, b.Add)
	}
	// Warmup acks fire at the consensus commit point while the KindApply
	// backlog is still draining into each Memtable; a sentinel GET per
	// shard flushes FIFO behind those applies, so measurement starts on
	// warm, quiescent stores.
	drain := func() {
		pending := 0
		for s := 0; s < shards; s++ {
			for k := 0; k < warmKeys; k++ {
				key := []byte(fmt.Sprintf("k%07d", k))
				if d.ShardFor(key) != s {
					continue
				}
				pending++
				client.Send(req(key, rkv.GetReq(key), uint64(2)<<32+uint64(s), func(actor.Msg) {
					pending--
					if pending == 0 {
						measure()
					}
				}))
				break
			}
		}
	}
	var warmDone, warmNext int
	var issueWarm func()
	issueWarm = func() {
		if warmNext >= warmKeys {
			return
		}
		key := []byte(fmt.Sprintf("k%07d", warmNext))
		flow := uint64(1)<<32 + uint64(warmNext)
		warmNext++
		client.Send(req(key, rkv.PutReq(key, make([]byte, 128)), flow, func(actor.Msg) {
			warmDone++
			if warmDone == warmKeys {
				drain()
			} else {
				issueWarm()
			}
		}))
	}
	for i := 0; i < warmDepth; i++ {
		issueWarm()
	}
	cl.Eng.RunUntil(warmupBudget + window)

	out := scaleRun{Trains: b.Trains, Coalesced: b.Coalesced}
	var max, total uint64
	for _, c := range perShard {
		total += c
		if c > max {
			max = c
		}
	}
	out.Tput = float64(total) / window.Seconds()
	out.P50, out.LatOK = client.Lat.PercentileOK(50)
	out.P99, _ = client.Lat.PercentileOK(99)
	out.Received = total
	out.Sent = client.Sent
	if total > 0 {
		out.Balance = float64(max) * float64(shards) / float64(total)
	}
	return out
}

func scaleShards(opts Options) *Result {
	window := 5 * sim.Millisecond
	shardCounts := []int{1, 2, 4, 8}
	thetas := []float64{0.50, 0.99, 1.00}
	if opts.Quick {
		window = 2 * sim.Millisecond
		shardCounts = []int{1, 8}
		thetas = []float64{0.99}
	}
	const depth = 48
	r := &Result{Header: []string{"theta", "shards", "tput(Kops)", "scale(x)", "linear(%)", "p50(us)", "p99(us)", "balance"}}
	g := grid{outer: len(thetas), inner: len(shardCounts)}
	runs := sweepMap(opts, g.size(), func(i int) scaleRun {
		ti, si := g.split(i)
		return runScale(opts, shardCounts[si], 1, depth, thetas[ti], window, true)
	})
	for ti, theta := range thetas {
		base := runs[ti*len(shardCounts)].Tput // shardCounts[0] == 1
		for si, shards := range shardCounts {
			run := runs[ti*len(shardCounts)+si]
			scale := 0.0
			if base > 0 {
				scale = run.Tput / base
			}
			linear := scale / float64(shards) * 100
			r.Add(theta, shards, run.Tput/1e3, scale, linear,
				latCell(run.P50, run.LatOK), latCell(run.P99, run.LatOK), run.Balance)
			if theta == 0.99 && shards == shardCounts[len(shardCounts)-1] {
				r.Note("θ=0.99, %d shards: %.1fx aggregate over 1 shard (%.0f%% of linear; target ≥80%%)",
					shards, scale, linear)
			}
		}
	}
	r.Note("one Paxos group per shard, 3 replicas rotated over 8 nodes; consistent-hash router (512 vnodes/shard)")
	r.Note("balance = hottest shard's completion share vs fair (1.0 = even); skew concentrates keys, not shards")
	return r
}

func scaleBatch(opts Options) *Result {
	window := 5 * sim.Millisecond
	batches := []int{1, 2, 4, 8, 16}
	if opts.Quick {
		window = 2 * sim.Millisecond
		batches = []int{1, 8}
	}
	const shards, depth = 8, 16
	paths := []struct {
		name  string
		onNIC bool
	}{{"dpdk", false}, {"nic", true}}
	r := &Result{Header: []string{"path", "batch", "tput(Kops)", "p50(us)", "p99(us)", "trains", "avg-train"}}
	g := grid{outer: len(paths), inner: len(batches)}
	runs := sweepMap(opts, g.size(), func(i int) scaleRun {
		pi, bi := g.split(i)
		return runScale(opts, shards, batches[bi], depth, 0.99, window, paths[pi].onNIC)
	})
	for pi, path := range paths {
		base := runs[pi*len(batches)]
		for bi, batch := range batches {
			run := runs[pi*len(batches)+bi]
			avg := 0.0
			if run.Trains > 0 {
				avg = float64(run.Coalesced) / float64(run.Trains)
			}
			r.Add(path.name, batch, run.Tput/1e3, latCell(run.P50, run.LatOK), latCell(run.P99, run.LatOK),
				run.Trains, avg)
			if bi == len(batches)-1 && base.Tput > 0 && run.LatOK && base.LatOK {
				r.Note("%s batch=%d vs unbatched: %.2fx throughput, p50 %+.1fus",
					path.name, batch, run.Tput/base.Tput, run.P50-base.P50)
			}
		}
	}
	r.Note("%d shards, θ=0.99; trains coalesce same-leader requests issued within a 2us window (I6)", shards)
	r.Note("both paths hold throughput parity while trains cut client request packets ~2.3x: the replicas are compute-bound, DPDK receive latency hides under queueing, and the on-path card's traffic manager admits packets in hardware")
	return r
}
