// Package fault is the deterministic failure injector: it turns a
// declarative Schedule of faults — node crash/restart, NIC-complex
// failure, NIC overload bursts, link loss, link flapping, network
// partitions, accelerator stalls — into first-class simulator events on
// the cluster's engine. Every activation and restoration is recorded in
// a byte-deterministic log (same seed + same schedule ⇒ identical
// bytes), and when tracing is enabled each fault appears as a span on a
// dedicated "faults" trace group, so degraded regimes are visible right
// next to the per-core execution lanes they perturb.
//
// The injector only *causes* failures; the recovery mechanisms live
// where they belong — client retry with capped exponential backoff in
// internal/workload, Paxos leader failover in internal/apps/rkv,
// transaction-timeout aborts and lock leases in internal/apps/dt, and
// crash semantics plus NIC-down actor re-homing in internal/core.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// nodeCrash fail-stops the whole node for Dur, then restarts it.
	nodeCrash Kind = iota + 1
	// nicDown kills only the SmartNIC processing complex: its actors
	// re-home to the host and ingress takes the host path.
	nicDown
	// nicOverload dilates NIC-core service times by Factor for Dur.
	nicOverload
	// linkLoss drops the node's traffic (both directions) with
	// probability Rate for Dur.
	linkLoss
	// linkFlap repeatedly severs and heals the node's connectivity:
	// down Period/2, up Period/2, for the whole Dur window.
	linkFlap
	// partitionCut severs the Nodes group from every other attached node
	// (including clients) for Dur; the group stays internally connected.
	partitionCut
	// accelStall occupies the named accelerator Unit for Dur; invocations
	// queue behind the blockage.
	accelStall
)

// String names the fault kind for logs and trace spans.
func (k Kind) String() string {
	switch k {
	case nodeCrash:
		return "crash"
	case nicDown:
		return "nic-down"
	case nicOverload:
		return "overload"
	case linkLoss:
		return "loss"
	case linkFlap:
		return "flap"
	case partitionCut:
		return "partition"
	case accelStall:
		return "stall"
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Fault is one scheduled failure. At is absolute virtual time; Dur the
// active window (every kind requires Dur > 0 — open-ended faults would
// make runs dependent on harness stop times, breaking determinism
// comparisons). Jitter, when set, shifts the start by a seed-derived
// offset in [0, Jitter), drawn from the engine's PRNG at install time.
type Fault struct {
	Kind  Kind
	Node  string   // target node (all kinds except Cut)
	Nodes []string // Cut: the group to cut off

	At  sim.Time
	Dur sim.Time

	Rate   float64  // linkLoss drop probability (0, 1]
	Factor float64  // nicOverload service-time multiplier (> 1)
	Period sim.Time // linkFlap cycle (default Dur/4)
	Unit   string   // accelStall accelerator name
	Jitter sim.Time // optional seed-derived start offset
}

// label renders the fault for the deterministic log and trace spans.
func (f Fault) label() string {
	switch f.Kind {
	case nicOverload:
		return fmt.Sprintf("%s %s x%.3g", f.Kind, f.Node, f.Factor)
	case linkLoss:
		return fmt.Sprintf("%s %s %.3g", f.Kind, f.Node, f.Rate)
	case partitionCut:
		return fmt.Sprintf("%s [%s]", f.Kind, strings.Join(f.Nodes, " "))
	case accelStall:
		return fmt.Sprintf("%s %s %s", f.Kind, f.Node, f.Unit)
	}
	return fmt.Sprintf("%s %s", f.Kind, f.Node)
}

// Crash builds a node crash/restart fault.
func Crash(node string, at, dur sim.Time) Fault {
	return Fault{Kind: nodeCrash, Node: node, At: at, Dur: dur}
}

// NICFail builds a SmartNIC-complex failure.
func NICFail(node string, at, dur sim.Time) Fault {
	return Fault{Kind: nicDown, Node: node, At: at, Dur: dur}
}

// Overload builds a NIC overload burst (service times × factor).
func Overload(node string, at, dur sim.Time, factor float64) Fault {
	return Fault{Kind: nicOverload, Node: node, At: at, Dur: dur, Factor: factor}
}

// Loss builds a lossy-link window on the node's traffic.
func Loss(node string, at, dur sim.Time, rate float64) Fault {
	return Fault{Kind: linkLoss, Node: node, At: at, Dur: dur, Rate: rate}
}

// Flap builds a flapping-link window (down Period/2, up Period/2).
func Flap(node string, at, dur, period sim.Time) Fault {
	return Fault{Kind: linkFlap, Node: node, At: at, Dur: dur, Period: period}
}

// Cut builds a partition isolating the given group from everyone else.
func Cut(at, dur sim.Time, nodes ...string) Fault {
	return Fault{Kind: partitionCut, Nodes: nodes, At: at, Dur: dur}
}

// Stall builds an accelerator stall on the node's named unit.
func Stall(node, unit string, at, dur sim.Time) Fault {
	return Fault{Kind: accelStall, Node: node, Unit: unit, At: at, Dur: dur}
}

// Schedule is a declarative set of faults, the Faults field of the
// deployment specs (internal/deploy).
type Schedule struct {
	Faults []Fault
}

// scheduleError is the typed validation failure for one fault in a
// Schedule, returned by Validate (and therefore Install): it identifies
// the offending fault by index and rendered label so a mis-built
// schedule fails loudly before any event reaches the engine.
type scheduleError struct {
	Index  int    // position in Schedule.Faults
	Label  string // the offending Fault's label
	Reason string
}

// Error implements error with the stable "fault N (label): reason" form.
func (e *scheduleError) Error() string {
	return fmt.Sprintf("fault %d (%s): %s", e.Index, e.Label, e.Reason)
}

// Validate checks the schedule against a cluster: known target nodes,
// positive windows that do not start before the engine's current time,
// sane parameters. Cut/Loss/Flap targets may name client
// endpoints (attached to the network but not cluster nodes), so only
// node-runtime faults require a cluster node. Every failure is a
// *scheduleError.
func (s Schedule) Validate(cl *core.Cluster) error {
	for i, f := range s.Faults {
		where := func(msg string, args ...any) error {
			return &scheduleError{Index: i, Label: f.label(), Reason: fmt.Sprintf(msg, args...)}
		}
		if f.At < 0 {
			return where("negative start time %v", f.At)
		}
		if now := cl.Eng.Now(); f.At < now {
			return where("window starts in the past (start %v, engine now %v)", f.At, now)
		}
		if f.Dur <= 0 {
			return where("fault window must be positive, got %v", f.Dur)
		}
		switch f.Kind {
		case nodeCrash, nicDown, nicOverload, accelStall:
			if cl.Node(f.Node) == nil {
				return where("unknown node %q", f.Node)
			}
		case linkLoss, linkFlap:
			if f.Node == "" {
				return where("needs a target node")
			}
		case partitionCut:
			if len(f.Nodes) == 0 {
				return where("needs a non-empty group")
			}
		default:
			return where("unknown fault kind")
		}
		switch f.Kind {
		case nicOverload:
			if f.Factor <= 1 {
				return where("overload factor must exceed 1, got %g", f.Factor)
			}
		case linkLoss:
			if f.Rate <= 0 || f.Rate > 1 {
				return where("loss rate must be in (0, 1], got %g", f.Rate)
			}
		case accelStall:
			if f.Unit == "" {
				return where("needs an accelerator unit name")
			}
		}
	}
	return nil
}

// Injector is an installed schedule: its events are split between the
// partition engines and the group's window-boundary barrier queue (on a
// classic cluster both are the one engine), its trace lanes are
// registered, and its activation log fills in as the run progresses.
type Injector struct {
	cl *core.Cluster
	tr *obs.Tracer

	// srcs holds one log/counter/trace slot per emitting source: srcs[0]
	// is the coordinator running barrier arms, srcs[1+p] is partition p
	// running its local arms. A classic cluster has the single source 0
	// for every arm — one engine, one timeline. Each slot is only ever
	// written by its owning goroutine — the coordinator between windows,
	// partition p inside its own window — so the injector needs no
	// locks; reads (Log, Injected, Active) are for after the run, like
	// every other counter.
	srcs []injSrc
}

// injSrc is one source's private injector state.
type injSrc struct {
	part  int16              // -1 for the coordinator
	eng   *sim.Engine        // local arms' engine; the coordinator's jitter stream
	chk   *invariant.Checker // local arms' ledger
	sink  *obs.Sink
	track obs.TrackID

	injected int
	active   int
	seq      int32
	log      []logEntry
}

// logEntry is one activation-log line with its deterministic sort key:
// merged output is ordered by (time, source, per-source seq), which is
// a pure function of the simulation — barrier actions at t sort before
// partition-local activity at t, matching their execution order.
type logEntry struct {
	t    sim.Time
	part int16
	seq  int32
	text string
}

// barrierArm reports whether the fault kind mutates cluster-wide state
// (membership, the network's loss and blocked-link tables) and must run
// as a window-boundary barrier action. The remaining kinds touch only
// the owning node's partition-local state and run on its partition
// engine.
func (f Fault) barrierArm() bool {
	switch f.Kind {
	case nodeCrash, linkLoss, linkFlap, partitionCut:
		return true
	}
	return false
}

// srcOf returns the index of the source slot that runs the fault.
func (in *Injector) srcOf(f Fault) int {
	if f.barrierArm() || len(in.srcs) == 1 {
		return 0
	}
	return 1 + in.cl.Node(f.Node).Part
}

// at returns the scheduler for the fault's arm class: cluster-wide arms
// are sim.Group.AtBarrier window-boundary actions, local arms events on
// the owning source's engine (the same thing on a classic cluster).
func (in *Injector) at(s *injSrc, f Fault) func(sim.Time, func()) {
	if f.barrierArm() {
		return in.cl.Group.AtBarrier
	}
	return func(t sim.Time, fn func()) { s.eng.At(t, fn) }
}

// epoch stamps a fault epoch at time t: on every partition's ledger for
// a cluster-wide arm (the mutation is visible to all of them), on the
// owner's for a local one. Explicit t, because partition clocks sit one
// tick behind a barrier action.
func (in *Injector) epoch(s *injSrc, f Fault, label string, t sim.Time) {
	if !f.barrierArm() {
		s.chk.EpochAt(label, t)
		return
	}
	for _, chk := range in.cl.Checkers() {
		chk.EpochAt(label, t)
	}
}

// Install validates the schedule and schedules every fault. Cluster-wide
// arms (crash, loss, flap, partition cuts) become sim.Group.AtBarrier
// window-boundary actions — they mutate shared state between
// conservative windows, race-free and deterministically at any worker
// count — while partition-local arms (overload, accel stall, NIC-down)
// are scheduled on the owning partition's engine, with jitter drawn
// from that partition's seeded PRNG stream (partition 0's for barrier
// arms). On a classic cluster both classes are events on the one
// engine. A mis-built schedule (unknown node, non-positive window,
// start before the engine's current time) is rejected with a
// *scheduleError before anything reaches the engine. Installing an
// empty schedule is allowed and yields an injector that never fires.
func Install(cl *core.Cluster, s Schedule) (*Injector, error) {
	if err := s.Validate(cl); err != nil {
		return nil, err
	}
	in := &Injector{cl: cl, tr: cl.Tracer()}
	nsrc := 1
	if parts := cl.Partitions(); parts > 1 {
		nsrc = 1 + parts
	}
	in.srcs = make([]injSrc, nsrc)
	in.srcs[0] = injSrc{part: -1, eng: cl.Eng, chk: cl.Checker(), sink: in.tr.Sink(0), track: obs.NoTrack}
	for p := 0; p < nsrc-1; p++ {
		in.srcs[1+p] = injSrc{
			part:  int16(p),
			eng:   cl.Group.Engine(p),
			chk:   cl.CheckerAt(p),
			sink:  in.tr.Sink(p),
			track: obs.NoTrack,
		}
	}

	// Stable order: sort by start time, preserving schedule order for
	// ties, so jitter draws and log lines never depend on input order
	// quirks.
	faults := append([]Fault(nil), s.Faults...)
	sort.SliceStable(faults, func(i, j int) bool { return faults[i].At < faults[j].At })

	// Trace lanes (coordinator-only registration, at install): one per
	// source that owns an arm, the coordinator's first.
	if in.tr.Enabled() && len(faults) > 0 {
		grp := in.tr.Group(cl.ObsPrefix() + "faults")
		used := make([]bool, nsrc)
		for _, f := range faults {
			used[in.srcOf(f)] = true
		}
		for i := range in.srcs {
			if !used[i] {
				continue
			}
			name := "injector"
			if i > 0 {
				name = fmt.Sprintf("injector-p%d", i-1)
			}
			in.srcs[i].track = in.tr.NewTrack(grp, name)
		}
	}

	for _, f := range faults {
		src := &in.srcs[in.srcOf(f)]
		start := f.At
		if f.Jitter > 0 {
			// Deterministic because install order is the stable sort.
			start += sim.Time(src.eng.Rand().Float64() * float64(f.Jitter))
		}
		in.at(src, f)(start, func() { in.activate(src, f, start) })
	}
	return in, nil
}

// Injected counts fault activations so far, across all sources.
func (in *Injector) Injected() int {
	n := 0
	for i := range in.srcs {
		n += in.srcs[i].injected
	}
	return n
}

// Active counts currently-active fault windows, across all sources.
func (in *Injector) Active() int {
	n := 0
	for i := range in.srcs {
		n += in.srcs[i].active
	}
	return n
}

// Log returns the activation log: one line per fault start and end,
// with virtual timestamps, merged across sources in (time, source,
// seq) order. Byte-deterministic for a given seed and schedule at any
// PDES worker count; with a single source the merge is the identity.
// Call between runs, not from inside one.
func (in *Injector) Log() []string {
	var all []logEntry
	for i := range in.srcs {
		all = append(all, in.srcs[i].log...)
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].t != all[b].t {
			return all[a].t < all[b].t
		}
		if all[a].part != all[b].part {
			return all[a].part < all[b].part
		}
		return all[a].seq < all[b].seq
	})
	out := make([]string, len(all))
	for i := range all {
		out[i] = all[i].text
	}
	return out
}

// Fingerprint joins the log into one comparable string.
func (in *Injector) Fingerprint() string { return strings.Join(in.Log(), "\n") }

// logAt appends a log line to the source's private vector, stamped for
// the deterministic merge.
func (s *injSrc) logAt(t sim.Time, text string) {
	s.seq++
	s.log = append(s.log, logEntry{t: t, part: s.part, seq: s.seq, text: text})
}

// activate applies a fault at its start time — between conservative
// windows for a cluster-wide arm, on the owning engine for a local one —
// and schedules its restoration the same way. Log lines and epochs are
// stamped with the explicit event time.
func (in *Injector) activate(s *injSrc, f Fault, start sim.Time) {
	at := in.at(s, f)
	revert := in.apply(s, at, f, start)
	s.injected++
	s.active++
	s.logAt(start, fmt.Sprintf("t=%d +%s", int64(start), f.label()))
	in.epoch(s, f, "+"+f.label(), start)
	end := start + f.Dur
	// The span is emitted at activation (the window is known up front):
	// per-lane timestamps then stay monotonic even when windows overlap.
	s.sink.Span(s.track, f.label(), start, end, obs.Args{})
	at(end, func() {
		if revert != nil {
			revert()
		}
		s.active--
		s.logAt(end, fmt.Sprintf("t=%d -%s", int64(end), f.label()))
		in.epoch(s, f, "-"+f.label(), end)
	})
}

// apply performs a fault's effect and returns its undo (nil when the
// effect self-expires). at is the fault's arm-class scheduler; flap
// toggles chain through it at explicit times.
func (in *Injector) apply(s *injSrc, at func(sim.Time, func()), f Fault, start sim.Time) func() {
	net := in.cl.Net
	switch f.Kind {
	case nodeCrash:
		n := in.cl.Node(f.Node)
		n.Fail()
		return n.Recover
	case nicDown:
		n := in.cl.Node(f.Node)
		n.FailNIC()
		return n.RecoverNIC
	case nicOverload:
		n := in.cl.Node(f.Node)
		n.SetNICSlowdown(f.Factor)
		return func() { n.SetNICSlowdown(1) }
	case linkLoss:
		net.SetNodeLoss(f.Node, f.Rate)
		return func() { net.SetNodeLoss(f.Node, 0) }
	case linkFlap:
		others := in.peersOf(f.Node)
		cut := func(on bool) {
			for _, o := range others {
				net.SetBlocked(f.Node, o, on)
			}
		}
		half := flapHalf(f)
		end := start + f.Dur
		down := true
		cut(true)
		var toggle func(t sim.Time)
		toggle = func(t sim.Time) {
			if t >= end {
				return
			}
			down = !down
			cut(down)
			if down {
				s.sink.Instant(s.track, "flap down "+f.Node, t)
			} else {
				s.sink.Instant(s.track, "flap up "+f.Node, t)
			}
			at(t+half, func() { toggle(t + half) })
		}
		at(start+half, func() { toggle(start + half) })
		return func() { cut(false) }
	case partitionCut:
		return in.applyCut(f)
	case accelStall:
		n := in.cl.Node(f.Node)
		if n.Accels == nil || !n.Accels.Stall(f.Unit, f.Dur) {
			s.logAt(start, fmt.Sprintf("t=%d skip %s (no unit)", int64(start), f.label()))
		}
		return nil // the station drains the stall by itself
	}
	return nil
}

// flapHalf derives a flap's half-period with the documented defaults.
func flapHalf(f Fault) sim.Time {
	half := f.Period / 2
	if half <= 0 {
		half = f.Dur / 8
	}
	if half <= 0 {
		half = 1
	}
	return half
}

// applyCut severs the fault's group from every other attached endpoint
// and returns the heal.
func (in *Injector) applyCut(f Fault) func() {
	net := in.cl.Net
	group := map[string]bool{}
	for _, a := range f.Nodes {
		group[a] = true
	}
	var others []string
	for _, name := range in.allEndpoints() {
		if !group[name] {
			others = append(others, name)
		}
	}
	for _, a := range f.Nodes {
		for _, b := range others {
			net.SetBlocked(a, b, true)
		}
	}
	a := append([]string(nil), f.Nodes...)
	return func() {
		for _, x := range a {
			for _, b := range others {
				net.SetBlocked(x, b, false)
			}
		}
	}
}

// allEndpoints returns every network-attached name (nodes and clients),
// sorted for determinism.
func (in *Injector) allEndpoints() []string {
	names := in.cl.Net.Nodes()
	sort.Strings(names)
	return names
}

// peersOf returns every attached endpoint except the given one, sorted.
func (in *Injector) peersOf(node string) []string {
	var out []string
	for _, name := range in.allEndpoints() {
		if name != node {
			out = append(out, name)
		}
	}
	return out
}
