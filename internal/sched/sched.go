// Package sched implements iPipe's NIC-side actor scheduler (§3.2), the
// central contribution of the paper: a hybrid discipline that runs
// low-dispersion actors to completion under FCFS off a shared queue and
// delegates high-dispersion actors to DRR (deficit round robin) cores —
// an efficient non-preemptive approximation of processor sharing — while
// migrating actors to the host when the SmartNIC cannot keep up.
//
// The concrete algorithms follow ALG 1 (FCFS cores) and ALG 2 (DRR
// cores) in the paper's appendix:
//
//   - All cores start in FCFS mode, pulling requests from the shared
//     incoming queue (hardware traffic manager on on-path NICs, software
//     shuffle layer with work stealing on off-path ones, §3.2.6).
//   - When the FCFS group's tail latency (µ+3σ EWMA) exceeds
//     TailThresh, the actor with the highest dispersion is downgraded to
//     the DRR runnable queue, spawning a DRR core if needed.
//   - DRR cores scan runnable actors round-robin; an actor executes one
//     mailbox request when its deficit counter exceeds its estimated
//     latency. The quantum is the maximum tolerated forwarding latency
//     for the actor's average request size (the compute headroom of
//     §2.2.2).
//   - When the FCFS tail drops below (1−α)·TailThresh, the
//     lowest-dispersion DRR actor is upgraded back to FCFS.
//   - When FCFS mean latency exceeds MeanThresh, the management core
//     (core 0) pushes the highest-load actor to the host; when it falls
//     below (1−α)·MeanThresh with CPU headroom, it pulls the
//     least-load host actor back. A DRR actor whose mailbox exceeds
//     qThresh is pushed to the host directly.
package sched

import (
	"fmt"
	"sort"

	"repro/internal/actor"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// monitorPeriod is how often the management core samples utilization
// and evaluates migration/autoscaling conditions.
const monitorPeriod = 100 * sim.Microsecond

// coreMode is a core's scheduling mode.
type coreMode uint8

// Core modes.
const (
	modeFCFS coreMode = iota
	modeDRR
	// modeDispatch marks the IOKernel dispatcher core (§3.2.6).
	modeDispatch
)

// String renders the mode.
func (m coreMode) String() string {
	switch m {
	case modeFCFS:
		return "FCFS"
	case modeDRR:
		return "DRR"
	default:
		return "Dispatch"
	}
}

// Hooks connects the scheduler to the surrounding runtime. All fields
// are required unless noted.
type Hooks struct {
	// Run executes an actor handler for one message and returns the
	// NIC-core service time (handler cost scaled to this NIC, plus any
	// costs the handler incurred through its context: sends, DMA,
	// accelerators). The forwarding tax is charged by the scheduler.
	Run func(a *actor.Actor, m actor.Msg) sim.Time
	// FwdTax is the per-packet dispatch cost on a core (spec.FwdTax).
	FwdTax func(bytes int) sim.Time
	// Forward delivers a message that no NIC actor owns (host-bound
	// traffic). The scheduler has already charged the forwarding tax.
	Forward func(m actor.Msg)
	// Quantum returns the DRR quantum for an actor: the max tolerated
	// forwarding latency at the actor's average request size.
	Quantum func(avgReqBytes int) sim.Time
	// PushToHost migrates an actor off the NIC (4-phase protocol in the
	// runtime); optional — nil disables migration.
	PushToHost func(a *actor.Actor)
	// PullFromHost asks the runtime to bring the least-loaded host actor
	// back; it reports whether a pull was initiated. Optional.
	PullFromHost func() bool
}

// Config carries the scheduler thresholds (§3.2.3: set from the NIC's
// own MTU line-rate characterization) and structural parameters.
type Config struct {
	Cores int
	// TailThresh/MeanThresh are sojourn-time thresholds in microseconds.
	TailThresh float64
	MeanThresh float64
	// Ingress is the FCFS ingress model (default SharedQueue).
	Ingress Ingress
	// AllDRR places every actor in the DRR runnable queue at
	// registration and keeps it there — the standalone DRR discipline
	// the paper compares against in §5.4. (The standalone FCFS
	// comparator is TailThresh = 0, which never downgrades.)
	AllDRR bool
	// ExtraDispatch is charged on every FCFS execution in addition to
	// the forwarding tax; it models heavier per-message runtimes (the
	// Floem comparator's logical-queue multiplexing, §5.6).
	ExtraDispatch sim.Time
}

// Ingress is how arrivals reach the FCFS cores (§3.2.6).
type Ingress uint8

const (
	// SharedQueue is the hardware traffic manager's shared queue of
	// on-path NICs.
	SharedQueue Ingress = iota
	// ShuffleLayer is the software shuffle layer with work stealing,
	// for off-path NICs without a hardware traffic manager.
	ShuffleLayer
	// IOKernel is §3.2.6's other software alternative: a dedicated
	// dispatcher core (Shenango-IOKernel style) feeding per-worker
	// queues. It costs one core.
	IOKernel
)

// The scheduler's fixed structural parameters.
const (
	// alpha is the hysteresis factor α.
	alpha = 0.2
	// scanCost is the DRR per-actor visit cost (pointer chase + deficit
	// update); a small constant keeps virtual time advancing.
	scanCost = 50 * sim.Nanosecond
	// dispatchCost is the FCFS cost to push a DRR actor's message into
	// its mailbox.
	dispatchCost = 100 * sim.Nanosecond
	// dispatcherCost is the IOKernel per-message routing cost.
	dispatcherCost = 250 * sim.Nanosecond
	// statsAlpha is the EWMA smoothing for group latency statistics.
	statsAlpha = 0.02
	// qThresh is the DRR mailbox length that triggers direct migration.
	qThresh = 64
	// migrationCooldown is the minimum spacing between migrations. A
	// migration stalls the moving actor for up to tens of milliseconds
	// (Figure 18), and right after one the FCFS statistics reflect only
	// cheap forwarding work, so deciding again immediately thrashes.
	migrationCooldown = 5 * sim.Millisecond
)

// DefaultConfig returns reasonable structural defaults; thresholds must
// still be set per NIC.
func DefaultConfig(cores int) Config {
	return Config{Cores: cores}
}

// Scheduler is the NIC-side scheduler instance.
type Scheduler struct {
	eng   *sim.Engine
	cfg   Config
	hooks Hooks

	cores []*core
	queue inQueue // shared FCFS ingress (hardware or shuffle)

	// actors maps NIC-resident actors by ID.
	actors map[actor.ID]*actor.Actor
	// drrRunnable is the single runnable queue all DRR cores share.
	drrRunnable []*actor.Actor
	// tails is the scratch slice the mode-switch decisions collect the
	// actors' service tails in to take their median.
	tails []float64

	// fcfsStats tracks sojourn times (queueing + execution) of FCFS
	// operations; its Tail()/Mean() drive downgrade and migration.
	fcfsStats stats.EWMA

	// chk/chkLabel carry the invariant checker (nil when disabled) and
	// this scheduler's label in its reports (the node name).
	chk      *invariant.Checker
	chkLabel string

	// sink/lane trace the scheduler's decisions (nil sink: tracing off);
	// each core carries its own lane.
	sink *obs.Sink
	lane obs.TrackID
	// Sojourn, when set, receives each completed execution's sojourn
	// (arrival to completion) in microseconds.
	Sojourn *obs.Histogram

	// Counters for experiments.
	Completed         uint64
	Forwarded         uint64
	Downgrades        uint64
	Upgrades          uint64
	PushMigrations    uint64
	PullMigrations    uint64
	CoreMoves         uint64
	migrationInFlight bool
	lastMigration     sim.Time
	lastMonitor       sim.Time
}

// New creates a scheduler with the given configuration and hooks.
func New(eng *sim.Engine, cfg Config, hooks Hooks) *Scheduler {
	if cfg.Cores <= 0 {
		panic("sched: need at least one core")
	}
	if hooks.Run == nil || hooks.FwdTax == nil {
		panic("sched: Run and FwdTax hooks are required")
	}
	s := &Scheduler{
		eng:    eng,
		cfg:    cfg,
		hooks:  hooks,
		actors: map[actor.ID]*actor.Actor{},
	}
	s.fcfsStats.Alpha = statsAlpha
	switch cfg.Ingress {
	case IOKernel:
		if cfg.Cores < 2 {
			panic("sched: IOKernel mode needs at least two cores")
		}
		s.queue = newIOKQueue(cfg.Cores - 1)
	case ShuffleLayer:
		s.queue = newShuffleQueue(cfg.Cores)
	default:
		s.queue = newSharedQueue()
	}
	for i := 0; i < cfg.Cores; i++ {
		c := newCore(s, i)
		if cfg.Ingress == IOKernel && i == cfg.Cores-1 {
			c.mode = modeDispatch
		}
		s.cores = append(s.cores, c)
	}
	return s
}

// Thresholds returns the current sojourn-time migration thresholds
// (TailThresh, MeanThresh) in microseconds.
func (s *Scheduler) Thresholds() (tailUs, meanUs float64) {
	return s.cfg.TailThresh, s.cfg.MeanThresh
}

// SetThresholds retunes the §3.2.3 migration thresholds at runtime —
// the knob an SLO control loop turns to make the EWMA tail signal fire
// earlier (tighter thresholds shed NIC load to the host sooner). A zero
// argument keeps the corresponding threshold unchanged.
func (s *Scheduler) SetThresholds(tailUs, meanUs float64) {
	if tailUs > 0 {
		s.cfg.TailThresh = tailUs
	}
	if meanUs > 0 {
		s.cfg.MeanThresh = meanUs
	}
}

// Observe attaches the scheduler's observers and returns the sched
// lane, for the runtime's migration spans. sk records every core
// operation as a span on its core's "nic core i" lane and every
// decision — mode switch, migration, core move — as an instant on a
// "sched" lane, all in group g; a nil sink leaves tracing off. chk
// audits the ingress queue per flow (FIFO), tracks DRR runnable-queue
// membership and cursor visits for round fairness, and validates core
// busy-time against wall time at each monitor tick; label names this
// scheduler in its reports, typically the node. Call before the first
// actor is added: the audits must see every push from the start.
func (s *Scheduler) Observe(sk *obs.Sink, g obs.GroupID, chk *invariant.Checker, label string) obs.TrackID {
	s.chk, s.chkLabel = chk, label
	if chk != nil {
		s.queue.setAudit(chk.NewQueueAudit(label + "/ingress"))
	}
	if sk == nil {
		return obs.NoTrack
	}
	for _, c := range s.cores {
		c.lane = sk.NewTrack(g, fmt.Sprintf("nic core %d", c.id))
	}
	s.sink, s.lane = sk, sk.NewTrack(g, "sched")
	return s.lane
}

// maybeMonitor runs the management core's periodic duties — sample
// per-core utilization over the last window, balance cores between the
// FCFS and DRR groups, evaluate the migration conditions — at most once
// per monitorPeriod. It is invoked from core completion paths, so it is
// activity-driven: an idle scheduler makes no decisions and leaves the
// event loop free to drain.
func (s *Scheduler) maybeMonitor() {
	now := s.eng.Now()
	if now-s.lastMonitor < monitorPeriod {
		return
	}
	window := now - s.lastMonitor
	s.lastMonitor = now
	for _, c := range s.cores {
		c.settle()
		s.chk.CoreBusy(s.chkLabel, c.id, c.busyAccum, now)
		c.winU = float64(c.busyAccum-c.winPrev) / float64(window)
		if c.winU > 1 {
			c.winU = 1
		}
		c.winPrev = c.busyAccum
	}
	s.autoscale()
	s.maybeUpgrade()
	s.maybeMigrate()
}

// maybeUpgrade returns DRR actors whose service dispersion is no longer
// an outlier to FCFS — the periodic counterpart of ALG 2's tail-based
// upgrade, which alone can starve a misclassified actor when the group
// tail never recovers below (1−α)·TailThresh.
func (s *Scheduler) maybeUpgrade() {
	if s.cfg.AllDRR || len(s.drrRunnable) == 0 {
		return
	}
	median, ok := s.medianTail()
	if !ok {
		return
	}
	for _, a := range s.drrRunnable {
		if a.State != actor.Stable {
			continue
		}
		if a.ServiceStats.Tail() <= 1.25*median {
			s.upgradeActor(a)
			return // at most one per tick
		}
	}
}

// medianTail returns the median service tail (µ+3σ) over the stable
// actors that have executed at all; ok is false when there are none.
func (s *Scheduler) medianTail() (median float64, ok bool) {
	tails := s.tails[:0]
	for _, a := range s.actors {
		if a.State == actor.Stable && a.ServiceStats.Count() > 0 {
			tails = append(tails, a.ServiceStats.Tail())
		}
	}
	s.tails = tails
	if len(tails) == 0 {
		return 0, false
	}
	return lowerMedian(tails), true
}

// lowerMedian sorts v in place and returns its lower median.
func lowerMedian(v []float64) float64 {
	sort.Float64s(v)
	return v[(len(v)-1)/2]
}

// AddActor registers a NIC-resident actor with the dispatcher.
func (s *Scheduler) AddActor(a *actor.Actor) {
	s.actors[a.ID] = a
	a.State = actor.Stable
	if s.cfg.AllDRR && !a.InDRR {
		a.InDRR = true
		a.Deficit = 0
		s.drrRunnable = append(s.drrRunnable, a)
		s.chk.DRRAdd(s.chkLabel, uint32(a.ID))
		s.ensureDRRCore()
	}
}

// RemoveActor deregisters an actor (migration or DoS kill). Its mailbox
// is left to the caller (migration forwards it; the watchdog drops it).
func (s *Scheduler) RemoveActor(id actor.ID) {
	a, ok := s.actors[id]
	if !ok {
		return
	}
	delete(s.actors, id)
	if a.InDRR {
		s.drrDequeue(a)
		a.InDRR = false
	}
}

// Actor returns a NIC-resident actor by ID.
func (s *Scheduler) Actor(id actor.ID) (*actor.Actor, bool) {
	a, ok := s.actors[id]
	return a, ok
}

// Arrive injects an incoming request (from the wire or from the host
// rings) into the ingress queue and wakes an FCFS core.
func (s *Scheduler) Arrive(m actor.Msg) {
	m.ArrivedAt = s.eng.Now()
	s.queue.push(m)
	s.wakeFCFS()
	// If the target actor sits in DRR, a DRR core may also be able to
	// make progress once the FCFS side moves the message to the mailbox;
	// nothing to do here.
}

// FCFSTail returns the FCFS group's current µ+3σ sojourn estimate (µs).
func (s *Scheduler) FCFSTail() float64 { return s.fcfsStats.Tail() }

// FCFSMean returns the FCFS group's mean sojourn estimate (µs).
func (s *Scheduler) FCFSMean() float64 { return s.fcfsStats.Mean() }

// CoreModes returns the number of cores in the FCFS and DRR groups
// (an IOKernel dispatcher core belongs to neither).
func (s *Scheduler) CoreModes() (fcfs, drr int) {
	for _, c := range s.cores {
		switch c.mode {
		case modeFCFS:
			fcfs++
		case modeDRR:
			drr++
		}
	}
	return
}

// QueueBacklog reports messages waiting in the ingress queue.
func (s *Scheduler) QueueBacklog() int { return s.queue.len() }

// DRRBacklog reports total mailbox backlog across DRR actors.
func (s *Scheduler) DRRBacklog() int {
	n := 0
	for _, a := range s.drrRunnable {
		n += a.Mailbox.Len()
	}
	return n
}

func (s *Scheduler) wakeFCFS() {
	if s.cfg.Ingress == IOKernel {
		// Arrivals land in the central buffer: wake the dispatcher; it
		// wakes workers as it routes.
		s.cores[len(s.cores)-1].kick()
	}
	for _, c := range s.cores {
		if c.mode == modeFCFS && c.idle {
			c.kick()
			return
		}
	}
}

func (s *Scheduler) wakeDRR() {
	for _, c := range s.cores {
		if c.mode == modeDRR && c.idle {
			c.kick()
			return
		}
	}
}

// downgrade moves the highest-dispersion FCFS actor into the DRR
// runnable queue (ALG 1 lines 13–16). Dispersion here is the µ+3σ of
// the actor's *service* time: the scheduler isolates actors whose
// execution costs are variable or heavy, which is what disrupts FCFS.
// The victim must stand out — its dispersion must clearly exceed the
// median actor's — otherwise downgrading cannot help (a homogeneous
// population under load breaches the tail threshold through queueing,
// and evicting arbitrary actors would only thrash).
func (s *Scheduler) downgrade() {
	var victim *actor.Actor
	tails := s.tails[:0]
	// Require a few samples before classifying; rare-but-heavy actors
	// must stay eligible, so the bar is low.
	const minSamples = 4
	for _, a := range s.actors {
		if a.State != actor.Stable || a.ServiceStats.Count() < minSamples {
			continue
		}
		tails = append(tails, a.ServiceStats.Tail())
		if a.InDRR {
			continue
		}
		// Ties break by actor ID so the victim never depends on map
		// iteration order (symmetric shard actors tie routinely).
		if victim == nil || a.ServiceStats.Tail() > victim.ServiceStats.Tail() ||
			(a.ServiceStats.Tail() == victim.ServiceStats.Tail() && a.ID < victim.ID) {
			victim = a
		}
	}
	s.tails = tails
	if victim == nil || len(tails) == 0 {
		return
	}
	median := lowerMedian(tails)
	if victim.ServiceStats.Tail() <= 2*median {
		return
	}
	victim.InDRR = true
	victim.Deficit = 0
	s.drrRunnable = append(s.drrRunnable, victim)
	s.chk.DRRAdd(s.chkLabel, uint32(victim.ID))
	s.Downgrades++
	if s.sink != nil {
		s.sink.Instant(s.lane, "downgrade "+victim.Label(), s.eng.Now())
	}
	s.ensureDRRCore()
}

// upgrade returns the lowest-dispersion DRR actor to FCFS (ALG 2 lines
// 10–12), with the symmetric guard to downgrade(): an actor whose
// service dispersion still stands out against the population stays in
// DRR even when the FCFS tail has recovered — precisely because it
// recovered by isolating that actor.
func (s *Scheduler) upgrade() {
	if len(s.drrRunnable) == 0 {
		return
	}
	median, ok := s.medianTail()
	if !ok {
		return
	}
	best := -1
	for i, a := range s.drrRunnable {
		if a.State != actor.Stable {
			continue
		}
		if best == -1 || a.ServiceStats.Tail() < s.drrRunnable[best].ServiceStats.Tail() {
			best = i
		}
	}
	if best == -1 {
		return
	}
	a := s.drrRunnable[best]
	if a.ServiceStats.Tail() > 1.5*median {
		return
	}
	s.upgradeActor(a)
}

// upgradeActor returns DRR actor a to FCFS and drains its mailbox back
// through the shared queue, so FCFS cores serve the backlog.
func (s *Scheduler) upgradeActor(a *actor.Actor) {
	s.drrDequeue(a)
	a.InDRR = false
	s.Upgrades++
	if s.sink != nil {
		s.sink.Instant(s.lane, "upgrade "+a.Label(), s.eng.Now())
	}
	for _, m := range a.Mailbox.Drain() {
		s.queue.push(m)
	}
	s.wakeFCFS()
	if len(s.drrRunnable) == 0 {
		s.collapseDRRCores()
	}
}

func (s *Scheduler) drrDequeue(a *actor.Actor) {
	for i, x := range s.drrRunnable {
		if x == a {
			s.drrRunnable = append(s.drrRunnable[:i], s.drrRunnable[i+1:]...)
			// Removing below a core's cursor shifts every later actor
			// down one slot; a cursor left as-is would silently skip the
			// actor that moved into the vacated position, costing it a
			// whole DRR round (and its quantum). Pull the cursors back in
			// step so each runnable actor keeps exactly one visit per
			// round.
			for _, c := range s.cores {
				if c.drrPos > i {
					c.drrPos--
				}
			}
			s.chk.DRRRemove(s.chkLabel, uint32(a.ID))
			return
		}
	}
}

// ensureDRRCore spawns a DRR core when an actor enters DRR and none
// exists (§3.2.4: "When an actor is pushed into the DRR runnable queue,
// the scheduler spawns a core for DRR execution").
func (s *Scheduler) ensureDRRCore() {
	for _, c := range s.cores {
		if c.mode == modeDRR {
			s.wakeDRR()
			return
		}
	}
	// Convert the last FCFS core (never core 0, the management core,
	// nor an IOKernel dispatcher).
	for i := len(s.cores) - 1; i > 0; i-- {
		if s.cores[i].mode == modeFCFS {
			s.cores[i].setMode(modeDRR)
			s.CoreMoves++
			s.wakeDRR()
			return
		}
	}
}

// collapseDRRCores returns all DRR cores to FCFS once the runnable queue
// is empty.
func (s *Scheduler) collapseDRRCores() {
	for _, c := range s.cores {
		if c.mode == modeDRR {
			c.setMode(modeFCFS)
			s.CoreMoves++
		}
	}
	s.wakeFCFS()
}

// autoscale implements §3.2.4's core balancing between the groups,
// with two refinements over the raw utilization rule:
//
//   - the DRR group is capped at the parallelism its runnable actors
//     can actually exploit (an exclusive actor occupies at most one
//     core; surplus DRR cores only spin the scan loop, which reads as
//     saturation while starving FCFS);
//   - the FCFS group has reclaim priority: conveying traffic is the
//     on-path NIC's basic duty (§3.2.1), so a saturated FCFS group
//     takes a core back from DRR regardless of DRR's utilization.
func (s *Scheduler) autoscale() {
	fcfsN, drrN := s.CoreModes()
	if drrN == 0 || fcfsN <= 1 {
		return
	}
	maxDRR := 0
	for _, a := range s.drrRunnable {
		if a.Exclusive {
			maxDRR++
		} else {
			maxDRR += s.cfg.Cores
		}
	}
	if maxDRR < 1 {
		maxDRR = 1
	}
	if maxDRR > s.cfg.Cores-1 {
		maxDRR = s.cfg.Cores - 1
	}
	fcfsU, drrU := s.groupWindowUtil()
	// Move a core FCFS→DRR when DRR is saturated and FCFS can spare one.
	if drrN < maxDRR && drrU >= 0.95 && fcfsU < float64(fcfsN-1)/float64(fcfsN) {
		for i := len(s.cores) - 1; i > 0; i-- {
			if s.cores[i].mode == modeFCFS {
				s.cores[i].setMode(modeDRR)
				s.CoreMoves++
				s.wakeDRR()
				return
			}
		}
	}
	// And back: DRR over-provisioned or underused, or FCFS saturated
	// (forwarding priority; suspended under AllDRR where FCFS cores
	// only dispatch).
	reclaim := drrN > maxDRR ||
		(fcfsU >= 0.95 && drrU < float64(drrN-1)/float64(drrN)) ||
		(!s.cfg.AllDRR && fcfsU >= 0.95)
	if drrN > 1 && reclaim {
		for i := len(s.cores) - 1; i > 0; i-- {
			if s.cores[i].mode == modeDRR {
				s.cores[i].setMode(modeFCFS)
				s.CoreMoves++
				s.wakeFCFS()
				return
			}
		}
	}
}

// groupWindowUtil returns last-window utilization per group.
func (s *Scheduler) groupWindowUtil() (fcfs, drr float64) {
	var fsum, dsum float64
	var fn, dn int
	for _, c := range s.cores {
		switch c.mode {
		case modeFCFS:
			fsum += c.winU
			fn++
		case modeDRR:
			dsum += c.winU
			dn++
		}
	}
	if fn > 0 {
		fcfs = fsum / float64(fn)
	}
	if dn > 0 {
		drr = dsum / float64(dn)
	}
	return
}

// maybeMigrate runs the management-core checks (ALG 1 lines 17–23).
func (s *Scheduler) maybeMigrate() {
	if s.migrationInFlight {
		return
	}
	if s.lastMigration != 0 && s.eng.Now()-s.lastMigration < migrationCooldown {
		return
	}
	if s.hooks.PushToHost != nil && s.cfg.MeanThresh > 0 && s.fcfsStats.Mean() > s.cfg.MeanThresh {
		if a := s.highestLoadActor(); a != nil {
			s.push(a)
			return
		}
	}
	if s.hooks.PullFromHost != nil && s.cfg.MeanThresh > 0 &&
		s.fcfsStats.Mean() < (1-alpha)*s.cfg.MeanThresh {
		fcfsU, _ := s.groupWindowUtil()
		if fcfsU < 0.8 { // sufficient CPU headroom
			s.migrationInFlight = true
			if s.hooks.PullFromHost() {
				s.lastMigration = s.eng.Now()
				s.PullMigrations++
				s.sink.Instant(s.lane, "pull from host", s.eng.Now())
			} else {
				s.migrationInFlight = false
			}
		}
	}
}

// push latches the migration and hands a to the runtime's 4-phase
// push to the host.
func (s *Scheduler) push(a *actor.Actor) {
	s.migrationInFlight = true
	s.lastMigration = s.eng.Now()
	s.PushMigrations++
	a.State = actor.Prepare
	if s.sink != nil {
		s.sink.Instant(s.lane, "push "+a.Label(), s.eng.Now())
	}
	s.hooks.PushToHost(a)
}

// TryLatchMigration acquires the single-migration latch from outside
// the policy path (the runtime's forced MigrateNow/PullNow). It
// returns false when a migration — policy-driven or forced — is
// already in flight, so a forced migration can never interleave with
// one and double-release the latch. On success the caller owns the
// latch until the protocol calls MigrationDone; lastMigration is
// stamped so the policy's cooldown spaces itself against forced
// migrations too.
func (s *Scheduler) TryLatchMigration() bool {
	if s.migrationInFlight {
		return false
	}
	s.migrationInFlight = true
	s.lastMigration = s.eng.Now()
	return true
}

// MigrationDone releases the single-migration latch (called by the
// runtime when the 4-phase protocol finishes).
func (s *Scheduler) MigrationDone() { s.migrationInFlight = false }

func (s *Scheduler) highestLoadActor() *actor.Actor {
	var best *actor.Actor
	for _, a := range s.actors {
		if a.State != actor.Stable || a.PinNIC {
			continue
		}
		if a.ExecStats.Count() == 0 {
			continue
		}
		// ID tie-break: keep the push-migration victim independent of
		// map iteration order (determinism contract).
		if best == nil || a.Load() > best.Load() ||
			(a.Load() == best.Load() && a.ID < best.ID) {
			best = a
		}
	}
	return best
}

// String summarizes scheduler state for debugging.
func (s *Scheduler) String() string {
	f, d := s.CoreModes()
	return fmt.Sprintf("sched{fcfs=%d drr=%d actors=%d runnable=%d backlog=%d}",
		f, d, len(s.actors), len(s.drrRunnable), s.queue.len())
}
