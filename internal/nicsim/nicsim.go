// Package nicsim models the SmartNIC device itself: the traffic manager
// (including its packets-per-second ceiling), the bank of hardware
// accelerators (Table 3), and the standalone echo server used by the
// paper's traffic-control characterization (Figures 2–5). The actor
// scheduler that runs *on* the NIC cores lives in internal/sched; the
// node runtime in internal/core composes the two.
package nicsim

import (
	"fmt"
	"sort"

	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
)

// TrafficGate models the traffic manager / NIC switch ingress bound: a
// single pipeline stage admitting at most PPSCap packets per second.
// With PPSCap == 0 the gate is transparent.
type TrafficGate struct {
	station *sim.Station
	perPkt  sim.Time

	Admitted uint64

	sink  *obs.Sink
	track obs.TrackID
	chk   *invariant.Checker
}

// NewTrafficGate builds a gate for the model's PPSCap.
func NewTrafficGate(eng *sim.Engine, m *spec.NICModel) *TrafficGate {
	g := &TrafficGate{track: obs.NoTrack}
	if m.PPSCap > 0 {
		g.perPkt = sim.Time(1e9 / m.PPSCap)
		g.station = sim.NewStation(eng, 1)
	}
	return g
}

// Observe attaches the gate's observers: sk records the pipeline
// occupancy as a "traffic mgr" lane in the given trace group, through
// the owning partition's sink (sink 0 on classic clusters); chk checks
// admission conservation — every admitted packet must clear the
// pipeline (the gate delays, it never drops). Either may be nil.
func (g *TrafficGate) Observe(sk *obs.Sink, group obs.GroupID, chk *invariant.Checker) {
	g.sink, g.track, g.chk = sk, sk.NewTrack(group, "traffic mgr"), chk
}

// Admit passes a packet through the gate; deliver runs when the packet
// clears the pipeline stage. flow and bytes annotate the trace span (a
// transparent gate emits no span — there is no occupancy to show).
func (g *TrafficGate) Admit(flow uint64, bytes int, deliver func()) {
	g.Admitted++
	g.chk.GateAdmit()
	if g.station == nil {
		g.chk.GateDeliver()
		deliver()
		return
	}
	g.station.Submit(&sim.Job{Service: g.perPkt, Done: func(enq, started, fin sim.Time) {
		g.sink.Span(g.track, "admit", started, fin,
			obs.Args{Req: flow, HasReq: flow != 0, Bytes: bytes, Wait: started - enq})
		g.chk.GateDeliver()
		deliver()
	}})
}

// AccelBank is the NIC's set of domain-specific accelerator units. Each
// unit serializes invocations (one engine per function block); the
// invoking core waits for completion, as the paper observes (§2.2.3:
// "invoking an accelerator is not free since the NIC core has to wait").
type AccelBank struct {
	units map[string]*accelUnit
	sink  *obs.Sink
}

type accelUnit struct {
	prof    spec.AccelProfile
	station *sim.Station
	invokes uint64
	track   obs.TrackID
}

// NewAccelBank instantiates the model's accelerators.
func NewAccelBank(eng *sim.Engine, m *spec.NICModel) *AccelBank {
	b := &AccelBank{units: map[string]*accelUnit{}}
	for name, prof := range m.Accels {
		b.units[name] = &accelUnit{prof: prof, station: sim.NewStation(eng, 1), track: obs.NoTrack}
	}
	return b
}

// Observe registers one trace lane per accelerator unit in the given
// group, emitting through the owning partition's sink; a nil sink
// leaves tracing off. Units are registered in sorted name order so
// track numbering does not depend on map iteration order.
func (b *AccelBank) Observe(sk *obs.Sink, group obs.GroupID) {
	if sk == nil {
		return
	}
	b.sink = sk
	names := make([]string, 0, len(b.units))
	for name := range b.units {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.units[name].track = sk.NewTrack(group, "accel "+name)
	}
}

// cost returns the modeled core-side wait for processing n bytes at the
// given batch size, without submitting work (for planning/what-if).
// Table 3's latencies are per-request at 1KB; cost scales linearly in
// payload with a floor of the fixed invocation overhead.
func (b *AccelBank) cost(name string, bytes, batch int) (sim.Time, bool) {
	u, ok := b.units[name]
	if !ok {
		return 0, false
	}
	per1KB, ok := u.prof.Latency(batch)
	if !ok {
		return 0, false
	}
	scale := float64(bytes) / 1024.0
	if scale < 0.25 {
		scale = 0.25 // invocation overhead floor
	}
	return sim.Time(float64(per1KB) * scale), true
}

// Invoke submits work to a unit and returns the modeled core wait; the
// core model should stay busy for that long. Contention on the unit is
// reflected through the station (done fires when the unit finishes).
func (b *AccelBank) Invoke(name string, bytes, batch int, done func()) (sim.Time, bool) {
	cost, ok := b.cost(name, bytes, batch)
	if !ok {
		return 0, false
	}
	u := b.units[name]
	u.invokes++
	u.station.Submit(&sim.Job{Service: cost, Done: func(enq, started, fin sim.Time) {
		b.sink.Span(u.track, name, started, fin,
			obs.Args{Bytes: bytes, Wait: started - enq})
		if done != nil {
			done()
		}
	}})
	return cost, true
}

// Stall occupies a unit for the given duration: a firmware hiccup or
// thermal throttle during which invocations queue behind the blockage
// (fault injection). Returns false if the bank has no such unit.
func (b *AccelBank) Stall(name string, d sim.Time) bool {
	u, ok := b.units[name]
	if !ok {
		return false
	}
	u.station.Submit(&sim.Job{Service: d, Done: func(enq, started, fin sim.Time) {
		b.sink.Span(u.track, name+" [stall]", started, fin,
			obs.Args{Wait: started - enq})
	}})
	return true
}

// Invokes reports a unit's invocation count.
func (b *AccelBank) Invokes(name string) uint64 {
	if u, ok := b.units[name]; ok {
		return u.invokes
	}
	return 0
}

// EchoServer is the characterization workload of §2.2.2: the NIC
// receives packets, touches them, and retransmits, using a configurable
// number of cores pulling from the shared traffic-manager queue. It
// reproduces Figures 2, 3 (bandwidth vs cores), 4 (bandwidth vs added
// per-packet latency) and 5 (latency at peak throughput).
type EchoServer struct {
	eng   *sim.Engine
	model *spec.NICModel
	gate  *TrafficGate
	cores *sim.Station
	// ExtraLatency is added per-packet processing (Figure 4's x-axis).
	ExtraLatency sim.Time

	Echoed uint64
	// OnEcho, if set, observes each completion with the packet's sojourn
	// time (arrival at gate → retransmission).
	OnEcho func(sojourn sim.Time)
}

// NewEchoServer builds an echo server using n of the model's cores.
func NewEchoServer(eng *sim.Engine, m *spec.NICModel, n int) *EchoServer {
	if n <= 0 || n > m.Cores {
		panic(fmt.Sprintf("nicsim: echo server cores %d out of range 1..%d", n, m.Cores))
	}
	return &EchoServer{
		eng:   eng,
		model: m,
		gate:  NewTrafficGate(eng, m),
		cores: sim.NewStation(eng, n),
	}
}

// Receive handles one arriving frame of the given size.
func (e *EchoServer) Receive(size int) {
	arrived := e.eng.Now()
	e.gate.Admit(0, size, func() {
		service := e.model.EchoCost.Cost(size) + e.ExtraLatency
		e.cores.Submit(&sim.Job{Service: service, Done: func(_, _, fin sim.Time) {
			e.Echoed++
			if e.OnEcho != nil {
				e.OnEcho(fin - arrived)
			}
		}})
	})
}
