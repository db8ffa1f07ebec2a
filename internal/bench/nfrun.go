package bench

import (
	"repro/internal/actor"
	"repro/internal/apps/nf"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// runFirewall deploys the 8K-rule TCAM firewall on the NIC and drives
// 1KB packets at the given fraction of line rate.
func runFirewall(opts Options, load float64, window sim.Time) appRun {
	cl := opts.cluster()
	nic := spec.LiquidIOII_CN2350()
	n := cl.AddNode(core.Config{Name: "fw", NIC: nic, DisableMigration: true})
	fw := deploy.FirewallSpec{Common: deploy.Common{Placement: deploy.NIC}, Node: n, ID: 500, Rules: nf.UniformRules(8192)}
	if _, err := fw.Deploy(); err != nil {
		panic(err)
	}
	client := workload.NewClient(cl, "cli", nic.LinkGbps)
	rnd := sim.NewRand(opts.seed() * 3)
	rate := spec.LineRatePPS(nic.LinkGbps, 1024) * load
	client.OpenLoop(rate, window, func(i uint64) workload.Request {
		t := nf.FiveTuple{
			SrcIP:   uint32(rnd.Intn(8192)) << 16,
			DstIP:   uint32(rnd.Uint64()),
			SrcPort: uint16(rnd.Intn(65536)),
			DstPort: 80,
			Proto:   6,
		}
		return workload.Request{Node: "fw", Dst: 500, Kind: nf.KindPacket,
			Data: t.Encode(), Size: 1024, FlowID: i}
	})
	cl.Eng.Run()
	return appRun{p50: client.Lat.Percentile(50), p99: client.Lat.Percentile(99),
		tput: float64(client.Received) / window.Seconds(), coresUsed: map[string]float64{}}
}

// runIPSec deploys the IPSec gateway on a LiquidIO card and measures
// achieved goodput for 1KB packets at line-rate offered load.
func runIPSec(opts Options, nic *spec.NICModel, window sim.Time) float64 {
	cl := opts.cluster()
	n := cl.AddNode(core.Config{Name: "gw", NIC: nic, DisableMigration: true})
	var gws []actor.ID
	// One gateway actor per two NIC cores: the crypto engines serialize,
	// so a handful of actors model the firmware's worker pool.
	for i := 0; i < 4; i++ {
		gw := deploy.IPSecSpec{Common: deploy.Common{Placement: deploy.NIC}, Node: n, ID: actor.ID(600 + i),
			Key: make([]byte, 32), MACKey: []byte("ipsec-mac-key")}
		if _, err := gw.Deploy(); err != nil {
			panic(err)
		}
		gws = append(gws, gw.ID)
	}
	client := workload.NewClient(cl, "cli", nic.LinkGbps)
	const size = 1024
	rate := spec.LineRatePPS(nic.LinkGbps, size)
	client.OpenLoop(rate, window, func(i uint64) workload.Request {
		return workload.Request{Node: "gw", Dst: gws[int(i)%len(gws)], Kind: nf.KindPacket,
			Data: make([]byte, 256), Size: size, FlowID: i}
	})
	cl.Eng.RunUntil(window + 2*sim.Millisecond)
	return float64(client.Received) / window.Seconds() * size * 8 / 1e9
}
