// Package isolation implements iPipe's protection mechanisms (§3.4) for
// actors coexisting on a SmartNIC:
//
//   - Actor state corruption: every DMO access is checked against the
//     owner's region (the software analogue of the cnMIPS TLB trap on
//     firmware cards, or per-thread address spaces on full-OS cards);
//     internal/dmo enforces the check, this package counts and reports
//     violations so the runtime can act on offenders.
//   - Denial of service: a per-core timeout watchdog (the LiquidIOII's
//     hardware timer rings, or POSIX signals on full-OS cards) bounds
//     how long one handler invocation may hold a core. A handler that
//     exceeds the budget is killed and its actor deregistered.
package isolation

import (
	"repro/internal/actor"
	"repro/internal/sim"
)

// Watchdog bounds per-invocation core occupancy. Each core clears and
// re-arms its dedicated timer around every handler execution; in the
// simulation we compare the modeled service time against the budget,
// which is equivalent to the timer firing mid-execution.
type Watchdog struct {
	// timeout is the per-invocation budget. Zero disables the watchdog.
	timeout sim.Time
	// onKill is invoked when an actor is condemned; the runtime
	// deregisters it, removes it from dispatch/runnable queues, and
	// frees its resources.
	onKill func(a *actor.Actor)

	// Kills counts condemned actors.
	Kills uint64
}

// NewWatchdog builds a watchdog with the given budget.
func NewWatchdog(timeout sim.Time, onKill func(*actor.Actor)) *Watchdog {
	return &Watchdog{timeout: timeout, onKill: onKill}
}

// Check inspects one handler invocation's service time. If it exceeds
// the budget the actor is killed and Check reports (clamped, true): the
// core is released after Timeout, not after the runaway service time.
func (w *Watchdog) Check(a *actor.Actor, service sim.Time) (sim.Time, bool) {
	if w == nil || w.timeout <= 0 || service <= w.timeout {
		return service, false
	}
	w.Kills++
	if w.onKill != nil {
		w.onKill(a)
	}
	return w.timeout, true
}

// ViolationLog aggregates DMO access violations per actor so the
// runtime (or an operator) can evict repeat offenders.
type ViolationLog struct {
	byActor map[actor.ID]uint64
}

// NewViolationLog returns an empty log.
func NewViolationLog() *ViolationLog {
	return &ViolationLog{byActor: map[actor.ID]uint64{}}
}

// Record notes one rejected access by an actor.
func (v *ViolationLog) Record(id actor.ID) {
	v.byActor[id]++
}

// Count returns an actor's violation count.
func (v *ViolationLog) Count(id actor.ID) uint64 { return v.byActor[id] }
