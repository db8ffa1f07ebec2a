// Package invariant is the opt-in runtime checker for the simulator's
// conservation laws. The paper states correctness properties the
// implementation must uphold but the experiment harness never enforces:
// flow-steered ingress preserves per-flow FIFO order (§3.2.6), DRR gives
// every runnable actor one visit per round (ALG 2), messages and credits
// and buffer bytes are conserved across sched→msgring→nicsim→netsim, and
// Multi-Paxos elects at most one leader per ballot. This package turns
// each of those into a cheap incremental check.
//
// The integration pattern is the same as internal/obs: a *Checker is
// threaded through the substrate packages, every method is safe on a nil
// receiver and returns immediately, so a disabled run (the default) pays
// only a nil comparison at each hook site — no allocation, no branch on
// shared state, and bit-identical simulation results either way.
//
// Besides flagging violations, a Checker accumulates a deterministic
// fingerprint: a line per fault epoch and a final line, each snapshotting
// the conservation counters at that instant (extending the byte-
// deterministic log idea of fault.Injector.Fingerprint to the whole
// dataplane). Two runs of the same cluster — different worker counts,
// same seed — must produce identical fingerprints; the golden-replay
// harness in internal/bench byte-compares them.
package invariant

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Violation is one detected invariant breach at a virtual time.
type Violation struct {
	At     sim.Time
	Rule   string
	Detail string
}

// String renders the violation as a stable log line.
func (v Violation) String() string {
	return fmt.Sprintf("violation t=%d %s: %s", int64(v.At), v.Rule, v.Detail)
}

// Checker accumulates conservation counters and violations for one
// cluster. All methods are nil-safe; a nil *Checker is the disabled
// state (mirroring obs.Tracer).
type Checker struct {
	eng *sim.Engine

	violations []Violation
	checks     uint64 // individual predicate evaluations
	epochs     []string

	// Message conservation at the network layer. Under a partitioned
	// (PDES) run each partition has its own checker, and a packet that
	// crosses partitions is injected on one ledger but delivered on
	// another; the handoff counters reconcile the two so conservation
	// still balances per checker: injected + in = delivered + dropped
	// + out at quiescence.
	netInjected  uint64
	netDelivered uint64
	netDropped   uint64
	netXferOut   uint64 // packets handed off to another partition
	netXferIn    uint64 // packets received from another partition

	// Traffic-gate conservation (admitted packets must all clear the
	// pipeline).
	gateAdmitted  uint64
	gateDelivered uint64

	// Scheduler work counters.
	execCompleted uint64
	drrVisits     uint64

	// Ingress-queue FIFO audit totals (details in the per-queue audits).
	queuePushes uint64
	queuePops   uint64

	// Msgring operation count (each op re-validates the credit state).
	ringOps uint64

	// DMO byte accounting: alloc = free + live, never over limit.
	dmoAlloc  uint64
	dmoFree   uint64
	dmoShadow map[dmoKey]int

	// QoS lane conservation: every enqueued message is eventually
	// delivered (sheds are counted separately and control sheds are
	// violations outright).
	laneEnqueued  uint64
	laneDelivered uint64
	laneShed      uint64

	// QoS admission conservation: every offered request is either
	// admitted or rejected.
	admOffered  uint64
	admAdmitted uint64
	admRejected uint64

	// Migration conservation (§3.2.5 push/pull hand-offs): every begun
	// migration resolves as exactly one commit or abort, and every
	// request buffered at a commit point is forwarded by the protocol's
	// final phase. Under PDES the commits run as deferred
	// window-boundary actions, so these counters double as the ledger
	// proving no hand-off was lost or doubled between a partition's
	// local phases and the coordinator's commit.
	migPushBegun     uint64
	migPushCommitted uint64
	migPullBegun     uint64
	migPullCommitted uint64
	migAborted       uint64
	migBytes         uint64
	migBuffered      uint64
	migForwarded     uint64
	// migInFlight tracks the actor each node is currently migrating:
	// the scheduler's single-migration latch means at most one per node,
	// so a second Begin before the first resolves is a latch breach.
	migInFlight map[string]string

	// DRR round-fairness state, per scheduler instance and core.
	drr map[string]*drrSched

	// Single-leader-per-ballot claims: group → ballot → replica.
	leaders map[string]map[uint64]int
}

type dmoKey struct {
	label string
	owner uint32
}

// New creates an enabled checker bound to the cluster's engine. eng may
// be nil in unit tests; violation timestamps are then zero.
func New(eng *sim.Engine) *Checker {
	return &Checker{
		eng:         eng,
		dmoShadow:   map[dmoKey]int{},
		drr:         map[string]*drrSched{},
		leaders:     map[string]map[uint64]int{},
		migInFlight: map[string]string{},
	}
}

// Enabled reports whether checking is on (the nil test, like
// obs.Tracer.Enabled).
func (c *Checker) Enabled() bool { return c != nil }

func (c *Checker) now() sim.Time {
	if c.eng == nil {
		return 0
	}
	return c.eng.Now()
}

func (c *Checker) violate(rule, format string, args ...any) {
	c.violations = append(c.violations, Violation{
		At:     c.now(),
		Rule:   rule,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Violations returns every breach recorded so far.
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	return c.violations
}

// Checks returns how many predicate evaluations ran (a liveness signal:
// a wired checker on an active cluster must count into the thousands).
func (c *Checker) Checks() uint64 {
	if c == nil {
		return 0
	}
	return c.checks
}

// Err folds violations into a single error, nil when clean.
func (c *Checker) Err() error {
	if c == nil || len(c.violations) == 0 {
		return nil
	}
	lines := make([]string, len(c.violations))
	for i, v := range c.violations {
		lines[i] = v.String()
	}
	return fmt.Errorf("invariant: %d violation(s):\n%s", len(c.violations), strings.Join(lines, "\n"))
}

// --- network conservation ---------------------------------------------

// NetInject records a packet entering the network (past the drop gates).
func (c *Checker) NetInject() {
	if c == nil {
		return
	}
	c.netInjected++
}

// NetDeliver records a packet handed to its destination node and checks
// that deliveries plus drops never exceed injections (in-flight ≥ 0).
func (c *Checker) NetDeliver() {
	if c == nil {
		return
	}
	c.netDelivered++
	c.netBalance()
}

// NetHandoffOut records a packet leaving this checker's partition for
// another one (its delivery or drop will land on the peer's ledger).
func (c *Checker) NetHandoffOut() {
	if c == nil {
		return
	}
	c.netXferOut++
	c.netBalance()
}

// NetHandoffIn records a packet arriving from another partition; from
// here on it is this ledger's responsibility.
func (c *Checker) NetHandoffIn() {
	if c == nil {
		return
	}
	c.netXferIn++
}

// netBalance checks that outcomes (delivered + dropped + handed off)
// never exceed responsibilities (injected + received); the difference
// is the in-flight count, which must stay ≥ 0.
func (c *Checker) netBalance() {
	c.checks++
	if c.netDelivered+c.netDropped+c.netXferOut > c.netInjected+c.netXferIn {
		c.violate("net-conservation",
			"delivered %d + dropped %d + out %d exceeds injected %d + in %d",
			c.netDelivered, c.netDropped, c.netXferOut, c.netInjected, c.netXferIn)
	}
}

// NetDrop records a packet dropped inside the network (unknown node,
// partition, injected loss). Drops at the source gates happen before
// injection and are not counted here.
func (c *Checker) NetDrop(reason string) {
	if c == nil {
		return
	}
	_ = reason
	c.netDropped++
	c.netBalance()
}

// --- traffic-gate conservation ----------------------------------------

// GateAdmit records a packet admitted into the traffic manager.
func (c *Checker) GateAdmit() {
	if c == nil {
		return
	}
	c.gateAdmitted++
}

// GateDeliver records a packet clearing the gate pipeline; it must have
// been admitted first.
func (c *Checker) GateDeliver() {
	if c == nil {
		return
	}
	c.gateDelivered++
	c.checks++
	if c.gateDelivered > c.gateAdmitted {
		c.violate("gate-conservation",
			"delivered %d exceeds admitted %d", c.gateDelivered, c.gateAdmitted)
	}
}

// --- scheduler ---------------------------------------------------------

// Exec records one completed core operation (execution or forward).
func (c *Checker) Exec() {
	if c == nil {
		return
	}
	c.execCompleted++
}

// CoreBusy checks a core's cumulative busy time against wall (virtual)
// time: a core cannot have been busy longer than the run has lasted.
func (c *Checker) CoreBusy(label string, coreID int, busy, now sim.Time) {
	if c == nil {
		return
	}
	c.checks++
	if busy > now {
		c.violate("core-busy",
			"%s core %d busy %d ns exceeds wall %d ns", label, coreID, int64(busy), int64(now))
	}
}

// --- msgring credit conservation ----------------------------------------

// RingOp validates a ring's pointer/credit state after an operation:
// head and tail only move forward, the consumer never outruns the
// producer, the producer's stale credit view never claims more than the
// ring capacity, and the consumed-since-sync count matches the pointer
// gap (the lazy-credit bookkeeping of §3.5). Called on every push, pop,
// and credit sync; wrap is where the arithmetic goes wrong first.
func (c *Checker) RingOp(label string, head, tail, creditHead, consumed, capacity int) {
	if c == nil {
		return
	}
	c.ringOps++
	c.checks++
	switch {
	case tail < head:
		c.violate("ring-credit", "%s: consumer head %d ahead of producer tail %d", label, head, tail)
	case head < creditHead:
		c.violate("ring-credit", "%s: credit head %d ahead of consumer head %d", label, creditHead, head)
	case tail-head > capacity:
		c.violate("ring-credit", "%s: occupancy %d exceeds capacity %d", label, tail-head, capacity)
	case tail-creditHead > capacity:
		c.violate("ring-credit", "%s: producer view %d slots used exceeds capacity %d",
			label, tail-creditHead, capacity)
	case consumed != head-creditHead:
		c.violate("ring-credit", "%s: consumed-since-sync %d != head %d - creditHead %d",
			label, consumed, head, creditHead)
	}
}

// --- DMO byte accounting -------------------------------------------------

// DMOAlloc records an allocation of size bytes for an actor's region and
// cross-checks the store's used/limit accounting against the checker's
// shadow count.
func (c *Checker) DMOAlloc(label string, owner uint32, size, used, limit int) {
	if c == nil {
		return
	}
	c.dmoAlloc += uint64(size)
	k := dmoKey{label, owner}
	c.dmoShadow[k] += size
	c.checks++
	if c.dmoShadow[k] != used {
		c.violate("dmo-bytes", "%s actor %d: region used %d != live bytes %d after alloc %d",
			label, owner, used, c.dmoShadow[k], size)
	}
	if used > limit {
		c.violate("dmo-bytes", "%s actor %d: region used %d exceeds limit %d",
			label, owner, used, limit)
	}
}

// DMOFree records a free returning size bytes to the region.
func (c *Checker) DMOFree(label string, owner uint32, size, used int) {
	if c == nil {
		return
	}
	c.dmoFree += uint64(size)
	k := dmoKey{label, owner}
	c.dmoShadow[k] -= size
	c.checks++
	if c.dmoShadow[k] < 0 {
		c.violate("dmo-bytes", "%s actor %d: freed more bytes than allocated (%d short)",
			label, owner, -c.dmoShadow[k])
	}
	if c.dmoShadow[k] != used {
		c.violate("dmo-bytes", "%s actor %d: region used %d != live bytes %d after free %d",
			label, owner, used, c.dmoShadow[k], size)
	}
}

// DMODestroy records an actor's region teardown releasing bytes live
// object bytes (DoS-watchdog kill or deregistration).
func (c *Checker) DMODestroy(label string, owner uint32, bytes int) {
	if c == nil {
		return
	}
	c.dmoFree += uint64(bytes)
	k := dmoKey{label, owner}
	c.checks++
	if c.dmoShadow[k] != bytes {
		c.violate("dmo-bytes", "%s actor %d: destroy released %d bytes but %d were live",
			label, owner, bytes, c.dmoShadow[k])
	}
	delete(c.dmoShadow, k)
}

// --- QoS lanes & admission ----------------------------------------------

// LaneEnqueue records a message entering a node's priority-lane queue.
func (c *Checker) LaneEnqueue(label string, lane uint8) {
	if c == nil {
		return
	}
	_, _ = label, lane
	c.laneEnqueued++
}

// LaneDeliver records a lane dispatch and audits strict priority:
// higherBacklog is the total depth of strictly-higher-priority lanes at
// dispatch time, which must be zero — a lower lane never dispatches
// past waiting higher-lane work.
func (c *Checker) LaneDeliver(label string, lane uint8, higherBacklog int) {
	if c == nil {
		return
	}
	c.laneDelivered++
	c.checks++
	if higherBacklog > 0 {
		c.violate("lane-priority",
			"%s: lane %d dispatched past %d queued higher-priority message(s)",
			label, lane, higherBacklog)
	}
	c.checks++
	if c.laneDelivered > c.laneEnqueued {
		c.violate("lane-conservation",
			"%s: delivered %d exceeds enqueued %d", label, c.laneDelivered, c.laneEnqueued)
	}
}

// LaneShed records a watermark shed. Only the telemetry lane may shed;
// a control-lane shed (control=true) is an outright violation of the
// never-drop-control contract.
func (c *Checker) LaneShed(label string, lane uint8, control bool) {
	if c == nil {
		return
	}
	c.laneShed++
	c.checks++
	if control {
		c.violate("lane-control-shed",
			"%s: control-lane message shed (lane %d); control traffic must never be dropped",
			label, lane)
	}
}

// AdmissionOffer records a request reaching a tenant admission gate.
func (c *Checker) AdmissionOffer() {
	if c == nil {
		return
	}
	c.admOffered++
}

// AdmissionAdmit records an admitted request and checks outcomes never
// exceed offers.
func (c *Checker) AdmissionAdmit() {
	if c == nil {
		return
	}
	c.admAdmitted++
	c.admissionBalance()
}

// AdmissionReject records a rejected request.
func (c *Checker) AdmissionReject() {
	if c == nil {
		return
	}
	c.admRejected++
	c.admissionBalance()
}

func (c *Checker) admissionBalance() {
	c.checks++
	if c.admAdmitted+c.admRejected > c.admOffered {
		c.violate("admission-conservation",
			"admitted %d + rejected %d exceeds offered %d",
			c.admAdmitted, c.admRejected, c.admOffered)
	}
}

// --- migration conservation ----------------------------------------------

// MigrateBegin records a migration entering its node-local phases
// (push: NIC→host drain/execute/DMO-move; pull: host→NIC object move)
// and audits the scheduler's single-migration latch: a node beginning
// a second migration before the first resolves has broken it.
func (c *Checker) MigrateBegin(node, actor string, push bool) {
	if c == nil {
		return
	}
	if push {
		c.migPushBegun++
	} else {
		c.migPullBegun++
	}
	c.checks++
	if prev, busy := c.migInFlight[node]; busy {
		c.violate("migration-latch",
			"%s begins migrating %q while %q is still in flight (latch not held)",
			node, actor, prev)
		return
	}
	c.migInFlight[node] = actor
}

// MigrateCommit records the cluster-visible commit (table rewrite,
// host/NIC registration) and the requests buffered while the actor was
// in flight; resolutions must never exceed begun migrations.
func (c *Checker) MigrateCommit(node, actor string, push bool, bytes, buffered int) {
	if c == nil {
		return
	}
	if push {
		c.migPushCommitted++
	} else {
		c.migPullCommitted++
	}
	c.migBytes += uint64(bytes)
	c.migBuffered += uint64(buffered)
	c.migrationBalance(node, actor)
}

// MigrateAbort records a migration resolved without a placement change
// (actor killed in flight, or bounced off dead hardware).
func (c *Checker) MigrateAbort(node, actor string, push bool) {
	if c == nil {
		return
	}
	_ = push
	c.migAborted++
	c.migrationBalance(node, actor)
}

// MigrateForward records buffered requests re-dispatched by the final
// phase; forwarding more than was ever buffered means a commit ran
// twice.
func (c *Checker) MigrateForward(node string, n int) {
	if c == nil {
		return
	}
	c.migForwarded += uint64(n)
	c.checks++
	if c.migForwarded > c.migBuffered {
		c.violate("migration-conserve",
			"%s: forwarded %d buffered requests but only %d were ever buffered (double commit?)",
			node, c.migForwarded, c.migBuffered)
	}
}

func (c *Checker) migrationBalance(node, actor string) {
	c.checks++
	if resolved := c.migPushCommitted + c.migPullCommitted + c.migAborted; resolved > c.migPushBegun+c.migPullBegun {
		c.violate("migration-conserve",
			"%s/%s: %d migrations resolved but only %d begun (double commit or double abort)",
			node, actor, resolved, c.migPushBegun+c.migPullBegun)
	}
	delete(c.migInFlight, node)
}

// --- RKV leadership ------------------------------------------------------

// LeaderClaim records a replica claiming leadership of a group at a
// ballot. The BallotOffset scheme (replica k elects only with ballots
// ≡ k mod group size) makes ballots collision-free; two claims on the
// same (group, ballot) by different replicas mean split brain.
func (c *Checker) LeaderClaim(group string, ballot uint64, replica int) {
	if c == nil {
		return
	}
	byBallot := c.leaders[group]
	if byBallot == nil {
		byBallot = map[uint64]int{}
		c.leaders[group] = byBallot
	}
	c.checks++
	if prev, claimed := byBallot[ballot]; claimed && prev != replica {
		c.violate("single-leader",
			"%s: replica %d claims ballot %d already held by replica %d",
			group, replica, ballot, prev)
		return
	}
	byBallot[ballot] = replica
}

// --- pooled records -------------------------------------------------------

// PoisonByte is what a released record's borrowed bytes are overwritten
// with under the checker (an ObjRead view, once its handler has
// returned), so a retained slice reads as garbage at once instead of as
// another request's data later.
const PoisonByte = 0xDB

// UseAfterRelease records something landing on a pooled per-message
// record after its owner released it: a second reply to a client call, a
// second delivery of a node→node wire record, a gate continuation fired
// twice. Under the checker the owners mark released records and never
// reuse them, so the stale use is caught at the record instead of being
// misattributed to whichever message recycled it. Only the failure is
// reported — the owners test their own mark — so a clean run counts no
// extra checks.
func (c *Checker) UseAfterRelease(kind, where string) {
	if c == nil {
		return
	}
	c.violate("use-after-release", "%s on %s used after its release", kind, where)
}

// --- epochs & fingerprint ------------------------------------------------

// countersLine renders the conservation counters compactly; identical
// runs produce identical lines.
func (c *Checker) countersLine() string {
	return fmt.Sprintf(
		"net=%d/%d/%d xfer=%d/%d gate=%d/%d exec=%d queue=%d/%d drr=%d ring=%d dmo=%d/%d leaders=%d lanes=%d/%d/%d adm=%d/%d/%d mig=%d/%d/%d/%d/%d migio=%d/%d/%d",
		c.netInjected, c.netDelivered, c.netDropped,
		c.netXferOut, c.netXferIn,
		c.gateAdmitted, c.gateDelivered,
		c.execCompleted, c.queuePushes, c.queuePops, c.drrVisits,
		c.ringOps, c.dmoAlloc, c.dmoFree, c.leaderCount(),
		c.laneEnqueued, c.laneDelivered, c.laneShed,
		c.admOffered, c.admAdmitted, c.admRejected,
		c.migPushBegun, c.migPushCommitted, c.migPullBegun, c.migPullCommitted, c.migAborted,
		c.migBytes, c.migBuffered, c.migForwarded)
}

func (c *Checker) leaderCount() int {
	n := 0
	for _, m := range c.leaders {
		n += len(m)
	}
	return n
}

// EpochAt snapshots the counters under a label at time t — the fault
// injector calls it at every fault activation and restoration, so the
// fingerprint carries per-fault-epoch conservation state, not just run
// totals. The timestamp is explicit for coordinator-side fault actions
// under PDES, where the partition clocks are normalized to one tick
// before the barrier and c.now() would stamp t-1 for a mutation that
// semantically happens at t.
func (c *Checker) EpochAt(label string, t sim.Time) {
	if c == nil {
		return
	}
	c.epochs = append(c.epochs,
		fmt.Sprintf("epoch t=%d %s %s", int64(t), label, c.countersLine()))
}

// Finish runs the end-of-run checks and seals the final counter line.
// Call once after the engine has drained; calling on a still-armed
// engine only skips the quiescence equalities (cutoff runs legitimately
// strand in-flight work). Idempotent in effect: repeated calls append
// repeated final lines, so callers should invoke it once.
func (c *Checker) Finish() {
	if c == nil {
		return
	}
	if c.eng != nil && c.eng.Pending() == 0 {
		c.checks++
		if inflight := (c.netInjected + c.netXferIn) - (c.netDelivered + c.netDropped + c.netXferOut); inflight != 0 {
			c.violate("net-conservation",
				"engine drained with %d packets unaccounted (injected %d, in %d, delivered %d, dropped %d, out %d)",
				inflight, c.netInjected, c.netXferIn, c.netDelivered, c.netDropped, c.netXferOut)
		}
		c.checks++
		if c.gateAdmitted != c.gateDelivered {
			c.violate("gate-conservation",
				"engine drained with %d admitted packets stuck in the gate (admitted %d, delivered %d)",
				c.gateAdmitted-c.gateDelivered, c.gateAdmitted, c.gateDelivered)
		}
		c.checks++
		if c.laneEnqueued != c.laneDelivered {
			c.violate("lane-conservation",
				"engine drained with %d messages stuck in priority lanes (enqueued %d, delivered %d)",
				c.laneEnqueued-c.laneDelivered, c.laneEnqueued, c.laneDelivered)
		}
		c.checks++
		if c.admOffered != c.admAdmitted+c.admRejected {
			c.violate("admission-conservation",
				"engine drained with %d offered requests unresolved (offered %d, admitted %d, rejected %d)",
				c.admOffered-c.admAdmitted-c.admRejected, c.admOffered, c.admAdmitted, c.admRejected)
		}
	}
	c.epochs = append(c.epochs,
		fmt.Sprintf("final t=%d %s", int64(c.now()), c.countersLine()))
}

// Fingerprint returns the deterministic run summary: the epoch lines in
// event order followed by every violation. Byte-identical across reruns
// of the same cluster at the same seed, whatever the host parallelism.
func (c *Checker) Fingerprint() string {
	if c == nil {
		return ""
	}
	lines := append([]string(nil), c.epochs...)
	for _, v := range c.violations {
		lines = append(lines, v.String())
	}
	return strings.Join(lines, "\n")
}

// CrossCheckHandoffs reconciles one cluster's per-partition handoff
// ledgers: every packet some partition handed off (NetHandoffOut) must
// have been claimed by another (NetHandoffIn), so the totals must agree
// once every engine has drained — per-partition conservation only
// proves each ledger is internally consistent; this closes the loop
// across them. Crash drains make the check interesting under faults: a
// cross-partition packet dropped by a downed destination still counts
// as received-then-dropped on the destination ledger, never as lost
// between ledgers. Skipped when any engine still has pending work
// (cutoff runs legitimately strand packets mid-handoff); a mismatch is
// recorded as a violation on the first enabled checker. Close calls it
// once, after the run, before Finish.
func CrossCheckHandoffs(chks []*Checker) {
	var first *Checker
	var out, in uint64
	for _, c := range chks {
		if c == nil {
			continue
		}
		if c.eng != nil && c.eng.Pending() > 0 {
			return
		}
		if first == nil {
			first = c
		}
		out += c.netXferOut
		in += c.netXferIn
	}
	if first == nil {
		return
	}
	first.checks++
	if out != in {
		first.violate("net-handoff-reconcile",
			"cross-partition handoffs do not reconcile: out %d, in %d", out, in)
	}
}

// Close closes out one cluster's checkers once its run is over:
// CrossCheckHandoffs, then Finish on each. It returns the checks they
// made, their violations in checker order, and their Errs joined (nil
// when clean).
func Close(chks []*Checker) (checks uint64, violations []Violation, err error) {
	CrossCheckHandoffs(chks)
	var errs []error
	for _, c := range chks {
		c.Finish()
		checks += c.Checks()
		violations = append(violations, c.Violations()...)
		errs = append(errs, c.Err())
	}
	return checks, violations, errors.Join(errs...)
}

// SortFingerprints canonicalizes a set of per-cluster fingerprints: the
// replay harness collects them from sweep workers in completion order,
// which is nondeterministic under parallelism; sorting restores a
// stable multiset representation for byte comparison.
func SortFingerprints(fps []string) string {
	sorted := append([]string(nil), fps...)
	sort.Strings(sorted)
	return strings.Join(sorted, "\n--\n")
}
