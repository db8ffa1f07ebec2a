package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
)

// tracedDivisor: the traced pass runs one fifth of the measured window.
// A 5 ms traced mesh already buffers 0.75 M spans (~130 MB).
const tracedDivisor = 5

// dmoCounts counts one actor's DMO calls. The program's dmo.Store keeps
// no operation counters, so the traced pass records them from here, by
// handing each handler a counting actor.Ctx. One struct per actor: an
// actor only ever runs on its own partition's goroutine.
type dmoCounts struct{ reads, writes, allocs, frees uint64 }

type countingCtx struct {
	actor.Ctx
	n *dmoCounts
}

func (c countingCtx) ObjRead(obj uint64, off, n int) ([]byte, error) {
	c.n.reads++
	return c.Ctx.ObjRead(obj, off, n)
}

func (c countingCtx) ObjWrite(obj uint64, off int, p []byte) error {
	c.n.writes++
	return c.Ctx.ObjWrite(obj, off, p)
}

func (c countingCtx) Alloc(size int) (uint64, error) {
	c.n.allocs++
	return c.Ctx.Alloc(size)
}

func (c countingCtx) Free(obj uint64) error {
	c.n.frees++
	return c.Ctx.Free(obj)
}

func countDMO(a *actor.Actor) *dmoCounts {
	n := &dmoCounts{}
	handler := a.OnMessage
	a.OnMessage = func(ctx actor.Ctx, m actor.Msg) sim.Time {
		return handler(countingCtx{ctx, n}, m)
	}
	return n
}

// spanSums aggregates the program's spans by lane kind. It is an
// io.Writer fed by obs.Tracer.WriteChromeTrace — the tracer's public
// export — which emits one trace_event object per line: thread_name
// metadata names each lane, "X" events carry dur and args.wait_us in
// simulated microseconds.
type spanSums struct {
	partial []byte
	lane    map[int64]string // tid → lane kind
	busyUs  map[string]float64
	waitUs  map[string]float64
	drr     uint64 // NIC-core executions under the DRR discipline
	err     error
}

func newSpanSums() *spanSums {
	return &spanSums{lane: map[int64]string{}, busyUs: map[string]float64{}, waitUs: map[string]float64{}}
}

// laneKind folds per-core lanes ("nic core 3") into their layer.
func laneKind(name string) string {
	for _, k := range []string{"nic core", "host core", "accel"} {
		if strings.HasPrefix(name, k) {
			return k
		}
	}
	return name
}

func (s *spanSums) Write(p []byte) (int, error) {
	s.partial = append(s.partial, p...)
	for {
		i := bytes.IndexByte(s.partial, '\n')
		if i < 0 {
			return len(p), nil
		}
		s.line(s.partial[:i])
		s.partial = s.partial[i+1:]
	}
}

func (s *spanSums) line(b []byte) {
	b = bytes.TrimSuffix(bytes.TrimSpace(b), []byte(","))
	if len(b) == 0 || b[0] != '{' || bytes.HasPrefix(b, []byte(`{"displayTimeUnit"`)) {
		return
	}
	var ev struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Dur  float64 `json:"dur"`
		Tid  int64   `json:"tid"`
		Args struct {
			Name   string  `json:"name"`
			WaitUs float64 `json:"wait_us"`
		} `json:"args"`
	}
	if err := json.Unmarshal(b, &ev); err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("trace line %q: %w", b, err)
		}
		return
	}
	switch {
	case ev.Ph == "M" && ev.Name == "thread_name":
		s.lane[ev.Tid] = laneKind(ev.Args.Name)
	case ev.Ph == "X":
		k := s.lane[ev.Tid]
		s.busyUs[k] += ev.Dur
		s.waitUs[k] += ev.Args.WaitUs
		if k == "nic core" && strings.HasSuffix(ev.Name, " [drr]") {
			s.drr++
		}
	}
}

// tracedRun is the traced pass for one workload: an untraced repetition
// at the traced window (the overhead baseline), then the same repetition
// with the program's tracer, collector and invariant checkers attached
// through their public API and every reachable actor's DMO calls counted.
// It returns the per-workload layer metrics and the untraced repetition,
// whose wall the cost model divides by.
func tracedRun(w wlSpec, seed uint64, window sim.Time) (map[string]float64, rep, error) {
	plain, err := runRep(w, seed, window, pdesWorkers, nil, nil)
	if err != nil {
		return nil, plain, err
	}
	if w.pdes {
		serial, err := runRep(w, seed, window, 1, nil, nil)
		if err != nil {
			return nil, plain, err
		}
		if a, b := serial.simFields(), plain.simFields(); a != b {
			return nil, plain, fmt.Errorf("%s: results depend on the worker count:\n  1 worker:  %s\n  %d workers: %s", w.name, a, pdesWorkers, b)
		}
	}

	tr := obs.NewTracer()
	var col *obs.Collector
	var chks []*invariant.Checker
	observe := func(cl *core.Cluster) {
		cl.EnableTracing(tr)
		col = obs.NewCollector(cl.Eng, obs.DefaultMetricsInterval)
		cl.EnableMetrics(col)
		col.Start()
		chks = cl.AttachCheckers()
	}
	var counts []*dmoCounts
	build := w.build
	w.build = func(seed uint64, window sim.Time, workers int, observe func(*core.Cluster)) *instance {
		inst := build(seed, window, workers, observe)
		for _, p := range inst.actors {
			counts = append(counts, countDMO(p.a))
		}
		return inst
	}
	m := map[string]float64{}
	sums := newSpanSums()
	var exportErr error
	traced, err := runRep(w, seed, window, pdesWorkers, observe, func(inst *instance) {
		exportErr = tr.WriteChromeTrace(sums)
		layerCounts(m, inst, col.CounterTotals(), counts)
		m["obs.spans"] = float64(tr.Spans())
	})
	if err != nil {
		return nil, plain, err
	}
	if exportErr == nil {
		exportErr = sums.err
	}
	if exportErr != nil {
		return nil, plain, fmt.Errorf("%s: reading the trace back: %w", w.name, exportErr)
	}
	// Observation must not perturb: same replies, same latencies as the
	// untraced run.
	if a, b := plain.outputs(), traced.outputs(); a != b {
		return nil, plain, fmt.Errorf("%s: tracing perturbed the simulation:\n  untraced %s\n  traced   %s", w.name, a, b)
	}

	// The checkers' end-of-run conservation equalities only arm on a
	// drained engine, so they are read after runRep's drain.
	invariant.CrossCheckHandoffs(chks)
	violations := 0
	for _, chk := range chks {
		chk.Finish()
		violations += len(chk.Violations())
	}
	m["invariant.violations"] = float64(violations)

	// Events are counted on the untraced repetition: the collector's own
	// sampling ticks are not the simulation's.
	m["sim.events"] = float64(plain.events)
	ops := float64(plain.ops)
	m["sim.events_per_op"] = m["sim.events"] / ops
	m["netsim.pkts_per_op"] = m["netsim.pkts"] / ops
	if m["pdes.rounds"] > 0 {
		m["pdes.events_per_round"] = m["sim.events"] / m["pdes.rounds"]
	}
	m["netsim.busy_us"] = sums.busyUs["link tx"] + sums.busyUs["link rx"]
	m["nicsim.gate.busy_us"] = sums.busyUs["traffic mgr"]
	m["sched.busy_us"] = sums.busyUs["nic core"]
	m["sched.wait_us"] = sums.waitUs["nic core"]
	m["sched.drr_execs"] = float64(sums.drr)
	m["pcie.busy_us"] = sums.busyUs["dma"]
	m["hostsim.busy_us"] = sums.busyUs["host core"]
	m["obs.overhead_ratio"] = (traced.wallS / float64(traced.events)) / (plain.wallS / float64(plain.events))
	for _, def := range tracedDefs {
		if _, ok := m[def.name]; !ok {
			m[def.name] = 0 // the layer did nothing on this workload
		}
	}
	if violations != 0 {
		return m, plain, fmt.Errorf("%s: %d invariant violations on the traced pass (first: %s)", w.name, violations, firstViolation(chks))
	}
	return m, plain, nil
}

// layerCounts reads every layer's work counters: the program's own where
// it keeps them (collector totals, node and network fields), the
// benchmark's counting contexts for DMO calls.
func layerCounts(m map[string]float64, inst *instance, totals map[string]uint64, dmoCalls []*dmoCounts) {
	cl := inst.cl
	m["netsim.pkts"] = float64(cl.Net.Delivered())
	m["netsim.drops"] = float64(cl.Net.Drops() + cl.Net.Lost() + cl.Net.PartitionDrops())
	m["sched.execs"] = float64(totals["nic_completed"])
	m["sched.forwarded"] = float64(totals["nic_forwarded"])
	m["sched.downgrades"] = float64(totals["downgrades"])
	m["hostsim.execs"] = float64(totals["host_completed"])
	for _, n := range inst.nodes {
		m["dmo.objects"] += float64(n.Objects.Objects())
		if !n.Offloaded() {
			continue
		}
		m["nicsim.gate.admits"] += float64(n.Gate.Admitted)
		m["pcie.dma_ops"] += float64(n.DMA.Reads + n.DMA.Writes)
		m["pcie.bytes"] += float64(n.DMA.BytesRead + n.DMA.BytesWritten)
		m["msgring.to_host_msgs"] += float64(n.Chan.ToHost().Pushed)
		m["msgring.to_nic_msgs"] += float64(n.Chan.ToNIC().Pushed)
		m["msgring.credit_msgs"] += float64(n.Chan.CreditMessages)
	}
	for _, p := range inst.actors {
		nic, host := p.node.Objects.ActorBytes(uint32(p.a.ID))
		m["dmo.bytes_nic"] += float64(nic)
		m["dmo.bytes_host"] += float64(host)
	}
	for _, n := range dmoCalls {
		m["dmo.reads"] += float64(n.reads)
		m["dmo.writes"] += float64(n.writes)
		m["dmo.allocs"] += float64(n.allocs + n.frees)
	}
	if g := cl.Group; g != nil {
		m["pdes.rounds"] = float64(g.Rounds())
		m["pdes.handoffs"] = float64(g.Crossed())
	}
}

func firstViolation(chks []*invariant.Checker) string {
	for _, chk := range chks {
		if v := chk.Violations(); len(v) > 0 {
			return v[0].String()
		}
	}
	return ""
}

// shares is the executable cost model: each layer's traced count times
// its isolated driver cost, as a share of the run's (untraced) wall.
// What is left — the applications, core's glue, the load generator — is
// share.unattributed. The drivers include the engine events their layer
// schedules, so sim.engine and sim.station are inside every share, not
// beside them.
func shares(t map[string]float64, drv map[string]driverResult, wallS float64) map[string]float64 {
	ns := func(name string) float64 { return drv[name].nsPerOp }
	wallNs := wallS * 1e9
	s := map[string]float64{
		"share.netsim": t["netsim.pkts"] * ns("netsim.send") / wallNs,
		"share.nicsim": t["nicsim.gate.admits"] * ns("nicsim.gate") / wallNs,
		"share.sched":  (t["sched.execs"] + t["sched.forwarded"]) * ns("sched.fcfs") / wallNs,
		"share.msgring_pcie": (t["msgring.to_host_msgs"]*ns("msgring.to_host") +
			t["msgring.to_nic_msgs"]*ns("msgring.to_nic")) / wallNs,
		"share.hostsim": t["hostsim.execs"] * ns("hostsim.arrive") / wallNs,
		"share.dmo":     (t["dmo.reads"]*ns("dmo.read") + t["dmo.writes"]*ns("dmo.write")) / wallNs,
		// A handoff costs what a cross-partition send costs beyond a
		// same-partition one; a round costs its fixed barrier.
		"share.pdes": (t["pdes.rounds"]*ns("pdes.round_w2") +
			t["pdes.handoffs"]*(ns("netsim.xpart")-ns("netsim.send"))) / wallNs,
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	s["share.unattributed"] = 1 - sum
	return s
}
