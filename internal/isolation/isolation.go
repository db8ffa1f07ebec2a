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

// Mechanism names the enforcement substrate, which depends on the card.
type Mechanism uint8

// The two enforcement substrates of §3.4.
const (
	// FirmwareTimer is the LiquidIOII hardware timer with 16 timer rings
	// plus software-managed TLB traps.
	FirmwareTimer Mechanism = iota
	// OSSignals is per-process address spaces plus POSIX signal timers
	// (BlueField, Stingray).
	OSSignals
)

// String renders the mechanism.
func (m Mechanism) String() string {
	if m == FirmwareTimer {
		return "firmware-timer"
	}
	return "os-signals"
}

// Watchdog bounds per-invocation core occupancy. Each core clears and
// re-arms its dedicated timer around every handler execution; in the
// simulation we compare the modeled service time against the budget,
// which is equivalent to the timer firing mid-execution.
type Watchdog struct {
	// Timeout is the per-invocation budget. Zero disables the watchdog.
	Timeout sim.Time
	// OnKill is invoked when an actor is condemned; the runtime
	// deregisters it, removes it from dispatch/runnable queues, and
	// frees its resources.
	OnKill func(a *actor.Actor)

	// Kills counts condemned actors.
	Kills uint64
}

// NewWatchdog builds a watchdog with the given budget.
func NewWatchdog(timeout sim.Time, onKill func(*actor.Actor)) *Watchdog {
	return &Watchdog{Timeout: timeout, OnKill: onKill}
}

// Check inspects one handler invocation's service time. If it exceeds
// the budget the actor is killed and Check reports (clamped, true): the
// core is released after Timeout, not after the runaway service time.
func (w *Watchdog) Check(a *actor.Actor, service sim.Time) (sim.Time, bool) {
	if w == nil || w.Timeout <= 0 || service <= w.Timeout {
		return service, false
	}
	w.Kills++
	if w.OnKill != nil {
		w.OnKill(a)
	}
	return w.Timeout, true
}

// ViolationLog aggregates DMO access violations per actor so the
// runtime (or an operator) can evict repeat offenders.
type ViolationLog struct {
	byActor map[actor.ID]uint64
	total   uint64
}

// NewViolationLog returns an empty log.
func NewViolationLog() *ViolationLog {
	return &ViolationLog{byActor: map[actor.ID]uint64{}}
}

// Record notes one rejected access by an actor.
func (v *ViolationLog) Record(id actor.ID) {
	v.byActor[id]++
	v.total++
}

// Count returns an actor's violation count.
func (v *ViolationLog) Count(id actor.ID) uint64 { return v.byActor[id] }

// Total returns all recorded violations.
func (v *ViolationLog) Total() uint64 { return v.total }
